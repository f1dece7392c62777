//! A source's table listing is fixed for its lifetime, so the dictionary
//! reads it once, when the source is registered: compiling and running
//! queries, however many, resolves tables through the dictionary's index
//! and never asks a source to list its tables again.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use coin_core::fixtures::figure2_system_with;
use coin_rel::{Schema, Table};
use coin_sql::Select;
use coin_wrapper::{Capabilities, Source, SourceError, SourceRef};

/// A `Source` decorator counting calls to `tables()`.
struct Counting {
    inner: SourceRef,
    listings: Arc<AtomicUsize>,
}

impl Source for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<(String, Schema)> {
        self.listings.fetch_add(1, SeqCst);
        self.inner.tables()
    }

    fn capabilities(&self) -> &Capabilities {
        self.inner.capabilities()
    }

    fn execute_select(&self, select: &Select) -> Result<Table, SourceError> {
        self.inner.execute_select(select)
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn estimated_cardinality(&self, table: &str) -> Option<usize> {
        self.inner.estimated_cardinality(table)
    }
}

#[test]
fn each_source_lists_its_tables_once_per_registration() {
    let mut listings = Vec::new();
    let sys = figure2_system_with(|inner| {
        let counter = Arc::new(AtomicUsize::new(0));
        listings.push(Arc::clone(&counter));
        Counting {
            inner,
            listings: counter,
        }
    });
    assert_eq!(listings.len(), 3);
    let counts = || listings.iter().map(|c| c.load(SeqCst)).collect::<Vec<_>>();
    assert_eq!(counts(), [1, 1, 1]);

    for i in 0..50 {
        let sql = format!(
            "SELECT rl.cname, rl.revenue FROM r1 rl, r2 \
             WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses + {i}"
        );
        let answer = sys.query(&sql, "c_recv").unwrap();
        assert_eq!(answer.table.rows.len(), 1); // NTT
    }
    assert_eq!(sys.cache_stats().misses, 50);
    assert_eq!(sys.dictionary().listing().len(), 3);
    assert_eq!(counts(), [1, 1, 1]);
}
