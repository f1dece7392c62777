//! Register-VM vs tree-walk equivalence.
//!
//! The streaming hot path evaluates expressions with the flat register VM
//! of `coin_rel::prog`; the recursive [`CExpr::eval`] tree walk stays as
//! the reference semantics. These properties drive randomly generated
//! expression trees — nulls, `-0.0`, division by zero, type mismatches,
//! overflow-widening arithmetic, short-circuit side conditions — over
//! random rows and require the VM, the constant folder, and the compiled
//! `LIKE` matcher to reproduce the tree's `Result` **exactly**, including
//! which error wins and float bit patterns — also when the VM reads its row
//! as a join's two input rows.

use coin_rel::expr::{CExpr, ScalarFn};
use coin_rel::prog::{fold, ExprProg, Joined, LikeProg};
use coin_rel::value::sql_like;
use coin_rel::{ArithOp, Row, Value, ValueError};
use coin_sql::BinOp;
use proptest::prelude::*;

/// Values chosen to hit every evaluation edge: NULL, both zero signs,
/// overflow-prone ints, int-valued floats and strings that double as LIKE
/// inputs.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-5i64..6).prop_map(Value::Int),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN)),
        prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(1.5),
            Just(-2.25),
            Just(2.0),
            Just(1e300),
        ]
        .prop_map(Value::Float),
        prop_oneof![
            Just(""),
            Just("a"),
            Just("ab"),
            Just("abc"),
            Just("b"),
            Just("A%b"),
            Just("a_c"),
        ]
        .prop_map(Value::str),
    ]
}

/// LIKE patterns mixing literals with `%`/`_` wildcards, including
/// pathological runs of `%`.
fn arb_pattern() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just("a"),
            Just("b"),
            Just("c"),
            Just("ab"),
            Just("%"),
            Just("_"),
            Just("%%"),
        ],
        0..5,
    )
    .prop_map(|parts| parts.concat())
}

fn arb_cmp_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Neq),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

fn arb_arith_op() -> impl Strategy<Value = ArithOp> {
    prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Sub),
        Just(ArithOp::Mul),
        Just(ArithOp::Div),
    ]
}

fn arb_scalar_fn() -> impl Strategy<Value = ScalarFn> {
    prop_oneof![
        Just(ScalarFn::Upper),
        Just(ScalarFn::Lower),
        Just(ScalarFn::Abs),
        Just(ScalarFn::Round),
        Just(ScalarFn::Length),
    ]
}

const ROW_WIDTH: usize = 3;

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), ROW_WIDTH..=ROW_WIDTH)
}

/// Random expression trees over `ROW_WIDTH` columns. Every `CExpr` variant
/// is reachable, including both CASE forms and argument-count-mismatched
/// scalar calls (whose errors the VM must reproduce verbatim).
fn arb_expr() -> impl Strategy<Value = CExpr> {
    let leaf = prop_oneof![
        arb_value().prop_map(CExpr::Const),
        (0..ROW_WIDTH).prop_map(CExpr::Col),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            (inner.clone(), arb_arith_op(), inner.clone()).prop_map(|(l, op, r)| CExpr::Arith(
                Box::new(l),
                op,
                Box::new(r)
            )),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| CExpr::Concat(Box::new(l), Box::new(r))),
            (inner.clone(), arb_cmp_op(), inner.clone()).prop_map(|(l, op, r)| CExpr::Cmp(
                Box::new(l),
                op,
                Box::new(r)
            )),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| CExpr::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| CExpr::Or(Box::new(l), Box::new(r))),
            inner.clone().prop_map(|e| CExpr::Not(Box::new(e))),
            inner.clone().prop_map(|e| CExpr::Neg(Box::new(e))),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, negated)| CExpr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated,
                }
            ),
            (
                inner.clone(),
                prop::collection::vec(inner.clone(), 0..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| CExpr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (inner.clone(), arb_pattern(), any::<bool>()).prop_map(|(e, pattern, negated)| {
                CExpr::Like {
                    expr: Box::new(e),
                    pattern,
                    negated,
                }
            }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| CExpr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            (
                prop::option::of(inner.clone()),
                prop::collection::vec((inner.clone(), inner.clone()), 1..3),
                prop::option::of(inner.clone())
            )
                .prop_map(|(operand, branches, else_branch)| CExpr::Case {
                    operand: operand.map(Box::new),
                    branches,
                    else_branch: else_branch.map(Box::new),
                }),
            (arb_scalar_fn(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| CExpr::Scalar(f, args)),
        ]
    })
}

/// Strict result equality: floats must be *bit*-identical (`-0.0` is not
/// `0.0` — it renders differently on the wire), errors must be the same
/// error.
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn assert_same(
    tree: &Result<Value, ValueError>,
    vm: &Result<Value, ValueError>,
) -> Result<(), TestCaseError> {
    let ok = match (tree, vm) {
        (Ok(x), Ok(y)) => bits_eq(x, y),
        (Err(x), Err(y)) => x == y,
        _ => false,
    };
    prop_assert!(ok, "tree: {tree:?}\nvm:   {vm:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        // CI determinism: never read or write regression files.
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// The compiled program produces exactly the tree walk's result —
    /// value, error, or short-circuit-suppressed error — on every row.
    #[test]
    fn vm_equals_tree_walk(e in arb_expr(), row in arb_row()) {
        let prog = ExprProg::compile(&e);
        let mut regs = Vec::new();
        let vm = prog.eval(&row, &mut regs);
        let tree = e.eval(&row);
        assert_same(&tree, &vm)?;
    }

    /// Register contents are scratch state: re-evaluating with a dirty
    /// register file (previous row's leftovers) changes nothing.
    #[test]
    fn dirty_registers_are_harmless(e in arb_expr(), r1 in arb_row(), r2 in arb_row()) {
        let prog = ExprProg::compile(&e);
        let mut regs = Vec::new();
        let _ = prog.eval(&r1, &mut regs);
        let second = prog.eval(&r2, &mut regs);
        let mut fresh = Vec::new();
        let clean = prog.eval(&r2, &mut fresh);
        assert_same(&clean, &second)?;
    }

    /// A program reading a row split in two — a join's pair of input rows,
    /// at any split point — produces exactly what it produces over the
    /// concatenated row, and what the tree walk does.
    #[test]
    fn split_input_equals_concatenated_row(
        e in arb_expr(), row in arb_row(), split in 0..ROW_WIDTH + 1
    ) {
        let prog = ExprProg::compile(&e);
        let mut regs = Vec::new();
        let (left, right) = row.split_at(split);
        let joined = prog.eval(&Joined(left, right), &mut regs);
        assert_same(&prog.eval(&row, &mut regs), &joined)?;
        assert_same(&e.eval(&row), &joined)?;
    }

    /// The constant folder is a pure semantic rewrite: the folded tree
    /// evaluates (by tree walk) to exactly the original's result.
    #[test]
    fn fold_preserves_tree_semantics(e in arb_expr(), row in arb_row()) {
        let folded = fold(&e);
        let before = e.eval(&row);
        let after = folded.eval(&row);
        assert_same(&before, &after)?;
    }

    /// Folding is idempotent — a second pass finds nothing new.
    #[test]
    fn fold_is_idempotent(e in arb_expr()) {
        let once = fold(&e);
        let twice = fold(&once);
        prop_assert_eq!(once, twice);
    }

    /// The precompiled LIKE matcher agrees with the per-call interpreter
    /// on every (pattern, text) pair.
    #[test]
    fn like_prog_equals_sql_like(pattern in arb_pattern(), text in "[abc_%]{0,8}") {
        let prog = LikeProg::compile(&pattern);
        prop_assert_eq!(
            prog.matches(&text),
            sql_like(&text, &pattern),
            "pattern {:?} text {:?}", pattern, text
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic short-circuit/error-ordering contracts.
// ---------------------------------------------------------------------------

fn vm_eval(e: &CExpr, row: &Row) -> Result<Value, ValueError> {
    let mut regs = Vec::new();
    ExprProg::compile(e).eval(row, &mut regs)
}

fn div_by_zero() -> CExpr {
    CExpr::Arith(
        Box::new(CExpr::Const(Value::Int(1))),
        ArithOp::Div,
        Box::new(CExpr::Const(Value::Int(0))),
    )
}

#[test]
fn and_false_suppresses_right_side_error() {
    let e = CExpr::And(
        Box::new(CExpr::Const(Value::Bool(false))),
        Box::new(div_by_zero()),
    );
    assert_eq!(e.eval(&vec![]), Ok(Value::Bool(false)));
    assert_eq!(vm_eval(&e, &vec![]), Ok(Value::Bool(false)));
}

#[test]
fn or_true_suppresses_right_side_error() {
    let e = CExpr::Or(
        Box::new(CExpr::Const(Value::Bool(true))),
        Box::new(div_by_zero()),
    );
    assert_eq!(e.eval(&vec![]), Ok(Value::Bool(true)));
    assert_eq!(vm_eval(&e, &vec![]), Ok(Value::Bool(true)));
}

#[test]
fn in_list_match_stops_before_erroring_item() {
    // 1 IN (1, 1/0): the match on the first item must suppress the error
    // hiding in the second.
    let e = CExpr::InList {
        expr: Box::new(CExpr::Const(Value::Int(1))),
        list: vec![CExpr::Const(Value::Int(1)), div_by_zero()],
        negated: false,
    };
    assert_eq!(e.eval(&vec![]), Ok(Value::Bool(true)));
    assert_eq!(vm_eval(&e, &vec![]), Ok(Value::Bool(true)));
}

#[test]
fn in_list_null_subject_skips_all_items() {
    // NULL IN (1/0): the NULL subject decides the answer before any item
    // is touched.
    let e = CExpr::InList {
        expr: Box::new(CExpr::Const(Value::Null)),
        list: vec![div_by_zero()],
        negated: true,
    };
    assert_eq!(e.eval(&vec![]), Ok(Value::Null));
    assert_eq!(vm_eval(&e, &vec![]), Ok(Value::Null));
}

#[test]
fn case_taken_branch_suppresses_later_errors() {
    let e = CExpr::Case {
        operand: None,
        branches: vec![
            (CExpr::Const(Value::Bool(true)), CExpr::Const(Value::Int(7))),
            (div_by_zero(), div_by_zero()),
        ],
        else_branch: Some(Box::new(div_by_zero())),
    };
    assert_eq!(e.eval(&vec![]), Ok(Value::Int(7)));
    assert_eq!(vm_eval(&e, &vec![]), Ok(Value::Int(7)));
}

#[test]
fn negative_zero_survives_compilation_bit_exactly() {
    let e = CExpr::Neg(Box::new(CExpr::Const(Value::Float(0.0))));
    let tree = e.eval(&vec![]).unwrap();
    let vm = vm_eval(&e, &vec![]).unwrap();
    let (Value::Float(a), Value::Float(b)) = (&tree, &vm) else {
        panic!("expected floats, got {tree:?} / {vm:?}");
    };
    assert_eq!(a.to_bits(), b.to_bits());
    assert_eq!(a.to_bits(), (-0.0f64).to_bits());
}

#[test]
fn fold_decides_column_free_predicates() {
    let tautology = CExpr::Cmp(
        Box::new(CExpr::Const(Value::Int(1))),
        BinOp::Eq,
        Box::new(CExpr::Const(Value::Int(1))),
    );
    assert_eq!(fold(&tautology), CExpr::Const(Value::Bool(true)));

    let contradiction = CExpr::Cmp(
        Box::new(CExpr::Const(Value::Int(1))),
        BinOp::Eq,
        Box::new(CExpr::Const(Value::Int(0))),
    );
    assert_eq!(fold(&contradiction), CExpr::Const(Value::Bool(false)));
}

#[test]
fn fold_keeps_per_row_errors_per_row() {
    // 1/0 is column-free but *erroring*: it must stay an expression so the
    // error still surfaces on the row that evaluates it, not at compile
    // time.
    let folded = fold(&div_by_zero());
    assert!(
        !matches!(folded, CExpr::Const(_)),
        "erroring constant was folded away: {folded:?}"
    );
}

#[test]
fn fold_applies_only_sound_conjunction_identities() {
    let col = || Box::new(CExpr::Col(0));

    // FALSE AND x → FALSE and TRUE OR x → TRUE are sound (the tree walk
    // short-circuits before x).
    let f_and = CExpr::And(Box::new(CExpr::Const(Value::Bool(false))), col());
    assert_eq!(fold(&f_and), CExpr::Const(Value::Bool(false)));
    let t_or = CExpr::Or(Box::new(CExpr::Const(Value::Bool(true))), col());
    assert_eq!(fold(&t_or), CExpr::Const(Value::Bool(true)));

    // TRUE AND x is NOT x: for non-boolean x the conjunction yields NULL
    // where x alone yields the value. It must survive folding intact.
    let t_and = CExpr::And(Box::new(CExpr::Const(Value::Bool(true))), col());
    assert_eq!(fold(&t_and), t_and);
    // x AND FALSE is NOT FALSE: x may error first.
    let and_f = CExpr::And(col(), Box::new(CExpr::Const(Value::Bool(false))));
    assert_eq!(fold(&and_f), and_f);
}
