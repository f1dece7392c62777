//! The HTML Query-By-Example interface.
//!
//! "We have developed two types of ready-to-use interfaces: A HyperText
//! Markup Language (HTML) Query-By-Example (QBE) and an ODBC driver"
//! (paper §2). This module renders the QBE form from the dictionary and
//! translates submissions into SQL for the mediator.
//!
//! Form conventions: the user picks a table, a receiver context, and fills
//! per-column condition boxes. A condition is an operator followed by a
//! value (`=IBM`, `>1000000`, `<>JPY`); a bare value means equality; a
//! checkbox selects which columns to project (all when none checked).

use coin_core::CoinSystem;

use crate::http::HttpResponse;
use crate::json::parse_form;

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Render the QBE form for every table in the dictionary.
pub fn render_form(system: &CoinSystem) -> String {
    let mut out = String::from(
        "<html><head><title>COIN Query-By-Example</title></head><body>\
         <h1>Context Interchange Prototype — QBE</h1>\n",
    );
    let contexts: Vec<&String> = system.contexts().keys().collect();
    for (source, table, schema) in system.dictionary().listing() {
        out.push_str(&format!(
            "<form method=\"POST\" action=\"/qbe\">\
             <h2>{} <small>(source {})</small></h2>\n\
             <input type=\"hidden\" name=\"table\" value=\"{}\"/>\n",
            html_escape(&table),
            html_escape(&source),
            html_escape(&table),
        ));
        out.push_str("<label>context: <select name=\"context\">");
        for c in &contexts {
            out.push_str(&format!(
                "<option value=\"{0}\">{0}</option>",
                html_escape(c)
            ));
        }
        out.push_str("</select></label><table>\n");
        out.push_str("<tr><th>column</th><th>show</th><th>condition</th></tr>\n");
        for col in &schema.columns {
            let base = col
                .name
                .rsplit_once('.')
                .map_or(col.name.as_str(), |(_, b)| b);
            out.push_str(&format!(
                "<tr><td>{0} ({1})</td>\
                 <td><input type=\"checkbox\" name=\"show_{0}\"/></td>\
                 <td><input type=\"text\" name=\"cond_{0}\"/></td></tr>\n",
                html_escape(base),
                col.ty.name(),
            ));
        }
        out.push_str("</table><input type=\"submit\" value=\"Run\"/></form>\n<hr/>\n");
    }
    out.push_str("</body></html>");
    out
}

/// Translate a QBE form submission into SQL.
///
/// Returns the SQL and the chosen receiver context.
pub fn form_to_sql(
    form: &std::collections::BTreeMap<String, String>,
) -> Result<(String, String), String> {
    let table = form
        .get("table")
        .filter(|t| !t.is_empty())
        .ok_or("no table selected")?;
    if !table.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("bad table name {table:?}"));
    }
    let context = form
        .get("context")
        .filter(|c| !c.is_empty())
        .ok_or("no context selected")?
        .clone();

    let mut projected: Vec<String> = form
        .iter()
        .filter(|(k, _)| k.starts_with("show_"))
        .map(|(k, _)| k["show_".len()..].to_owned())
        .collect();
    projected.sort();
    let select_list = if projected.is_empty() {
        "*".to_owned()
    } else {
        projected.join(", ")
    };

    let mut conditions = Vec::new();
    for (k, v) in form {
        let Some(col) = k.strip_prefix("cond_") else {
            continue;
        };
        let v = v.trim();
        if v.is_empty() {
            continue;
        }
        let (op, rest) = if let Some(r) = v.strip_prefix("<>") {
            ("<>", r)
        } else if let Some(r) = v.strip_prefix(">=") {
            (">=", r)
        } else if let Some(r) = v.strip_prefix("<=") {
            ("<=", r)
        } else if let Some(r) = v.strip_prefix('=') {
            ("=", r)
        } else if let Some(r) = v.strip_prefix('>') {
            (">", r)
        } else if let Some(r) = v.strip_prefix('<') {
            ("<", r)
        } else {
            ("=", v)
        };
        let rest = rest.trim();
        // Numeric values stay bare; anything else becomes a string literal.
        let literal = if rest.parse::<f64>().is_ok() {
            rest.to_owned()
        } else {
            format!("'{}'", rest.replace('\'', "''"))
        };
        conditions.push(format!("{col} {op} {literal}"));
    }

    let mut sql = format!("SELECT {select_list} FROM {table}");
    if !conditions.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conditions.join(" AND "));
    }
    Ok((sql, context))
}

/// Handle a QBE POST: run the mediated query and render an HTML answer.
pub fn handle_submission(system: &CoinSystem, body: &str) -> HttpResponse {
    let form = parse_form(body);
    let (sql, context) = match form_to_sql(&form) {
        Ok(x) => x,
        Err(m) => return HttpResponse::error(400, &m),
    };
    match system.query(&sql, &context) {
        Ok(answer) => {
            let mut out = String::from("<html><body><h1>Answer</h1>\n");
            out.push_str(&format!(
                "<p>receiver query: <code>{}</code></p>\n\
                 <p>mediated query: <code>{}</code></p>\n<table border=\"1\">\n<tr>",
                html_escape(&sql),
                html_escape(answer.mediated.sql_text())
            ));
            for c in &answer.table.schema.columns {
                out.push_str(&format!("<th>{}</th>", html_escape(&c.name)));
            }
            out.push_str("</tr>\n");
            for row in &answer.table.rows {
                out.push_str("<tr>");
                for v in row {
                    out.push_str(&format!("<td>{}</td>", html_escape(&v.render())));
                }
                out.push_str("</tr>\n");
            }
            out.push_str("</table>\n<p><a href=\"/qbe\">back</a></p></body></html>");
            HttpResponse::html(&out)
        }
        Err(e) => HttpResponse::error(400, &format!("query failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn form(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn bare_value_is_equality() {
        let (sql, ctx) = form_to_sql(&form(&[
            ("table", "r1"),
            ("context", "c_recv"),
            ("cond_cname", "IBM"),
        ]))
        .unwrap();
        assert_eq!(sql, "SELECT * FROM r1 WHERE cname = 'IBM'");
        assert_eq!(ctx, "c_recv");
    }

    #[test]
    fn operators_and_numbers() {
        let (sql, _) = form_to_sql(&form(&[
            ("table", "r1"),
            ("context", "c_recv"),
            ("cond_revenue", ">1000000"),
            ("cond_currency", "<>JPY"),
        ]))
        .unwrap();
        assert_eq!(
            sql,
            "SELECT * FROM r1 WHERE currency <> 'JPY' AND revenue > 1000000"
        );
    }

    #[test]
    fn projection_checkboxes() {
        let (sql, _) = form_to_sql(&form(&[
            ("table", "r1"),
            ("context", "c_recv"),
            ("show_cname", "on"),
            ("show_revenue", "on"),
        ]))
        .unwrap();
        assert_eq!(sql, "SELECT cname, revenue FROM r1");
    }

    #[test]
    fn missing_table_or_context_rejected() {
        assert!(form_to_sql(&form(&[("context", "c")])).is_err());
        assert!(form_to_sql(&form(&[("table", "r1")])).is_err());
    }

    #[test]
    fn hostile_table_name_rejected() {
        assert!(form_to_sql(&form(&[("table", "r1; DROP"), ("context", "c_recv")])).is_err());
    }

    #[test]
    fn quote_escaping_in_values() {
        let (sql, _) = form_to_sql(&form(&[
            ("table", "r1"),
            ("context", "c_recv"),
            ("cond_cname", "O'Hare"),
        ]))
        .unwrap();
        assert!(sql.contains("'O''Hare'"));
    }

    #[test]
    fn form_renders_for_figure2() {
        let sys = coin_core::fixtures::figure2_system();
        let html = render_form(&sys);
        assert!(html.contains("r1"));
        assert!(html.contains("cond_revenue"));
        assert!(html.contains("c_recv"));
    }

    #[test]
    fn qbe_submission_end_to_end() {
        let sys = coin_core::fixtures::figure2_system();
        let resp = handle_submission(
            &sys,
            "table=r1&context=c_recv&show_cname=on&show_revenue=on&cond_currency=%3DJPY",
        );
        assert_eq!(resp.status, 200);
        let body = String::from_utf8_lossy(&resp.body);
        assert!(body.contains("NTT"), "{body}");
        assert!(body.contains("9600000"), "{body}");
    }
}
