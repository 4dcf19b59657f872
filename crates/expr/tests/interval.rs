//! Seeded soundness tests for [`Expr::interval`] and [`Expr::decide`]: on
//! random typed integer expressions, every value [`Expr::eval`] produces at
//! a well-typed assignment lies inside the interval whenever the analysis
//! returns one, and every condition `decide` answers evaluates to that
//! answer.

use polis_core::random::Rng;
use polis_expr::{Expr, MapEnv, Type, Value};

/// The typed variables the generator draws from: narrow and wide, signed
/// and unsigned, so products of the 32-bit ones overflow 64 bits.
fn vars() -> Vec<(&'static str, Type)> {
    vec![
        ("b1", Type::uint(1)),
        ("u4", Type::uint(4)),
        ("u8", Type::uint(8)),
        ("s4", Type::int(4)),
        ("s8", Type::int(8)),
        ("u16", Type::uint(16)),
        ("s16", Type::int(16)),
        ("u32", Type::uint(32)),
        ("s32", Type::int(32)),
    ]
}

/// A random integer expression over the operators `interval` models, plus
/// the occasional `%` it does not.
fn gen_int(rng: &mut Rng, vars: &[(&str, Type)], depth: usize) -> Expr {
    if depth == 0 || rng.chance(0.25) {
        return if rng.bool() {
            Expr::var(rng.pick(vars).0)
        } else {
            Expr::int(rng.i64(-300..300))
        };
    }
    let sub = |rng: &mut Rng| gen_int(rng, vars, depth - 1);
    match rng.usize(0..10) {
        0 => sub(rng).neg(),
        1 => sub(rng).add(sub(rng)),
        2 => sub(rng).sub(sub(rng)),
        3 => sub(rng).mul(sub(rng)),
        // A positive constant divisor half the time, so division is
        // modelled often, not only refused.
        4 if rng.bool() => sub(rng).div(Expr::int(rng.i64(1..9))),
        4 => sub(rng).div(sub(rng)),
        5 => sub(rng).min(sub(rng)),
        6 => sub(rng).max(sub(rng)),
        7 => Expr::ite(sub(rng).lt(sub(rng)), sub(rng), sub(rng)),
        8 => sub(rng).rem(sub(rng)),
        _ => sub(rng).add(Expr::int(rng.i64(0..4))),
    }
}

/// An assignment of every variable: a corner of the type ranges (each
/// variable at its minimum or its maximum) or a uniform value inside them.
fn assignment(rng: &mut Rng, vars: &[(&str, Type)], corner: bool) -> MapEnv {
    vars.iter()
        .map(|&(n, t)| {
            let v = match (corner, rng.bool()) {
                (true, true) => t.min_value(),
                (true, false) => t.max_value(),
                (false, _) => rng.i64(t.min_value()..t.max_value() + 1),
            };
            (n.to_owned(), Value::Int(v))
        })
        .collect()
}

#[test]
fn every_evaluation_lies_inside_the_interval() {
    let vars = vars();
    let ty_of = |n: &str| vars.iter().find(|(v, _)| *v == n).map(|&(_, t)| t);
    let mut rng = Rng::new(0x1a7e_55a1);
    let (mut bounded, total) = (0, 2_000);
    for case in 0..total {
        let depth = rng.usize(1..5);
        let e = gen_int(&mut rng, &vars, depth);
        let Some((lo, hi)) = e.interval(&ty_of) else {
            continue;
        };
        bounded += 1;
        assert!(lo <= hi, "case {case}: empty [{lo}, {hi}] for {e}");
        for k in 0..24 {
            let env = assignment(&mut rng, &vars, k % 2 == 0);
            let v = e.eval(&env).unwrap().as_int().unwrap();
            assert!(
                (lo..=hi).contains(&v),
                "case {case}: {e} = {v} outside [{lo}, {hi}] at {env:?}"
            );
        }
    }
    // The analysis must bound a good share of what it sees, or the check
    // above is idle.
    assert!(bounded * 3 > total, "only {bounded} of {total} bounded");
}

#[test]
fn overflow_and_unmodelled_operators_give_none() {
    let ty_of = |_: &str| Some(Type::uint(32));
    // (2^32 - 1) * 2^30 fits in i64; (2^32 - 1)^2 does not.
    let big = Expr::var("a").mul(Expr::int(1 << 30));
    assert_eq!(big.interval(&ty_of), Some((0, i64::from(u32::MAX) << 30)));
    assert_eq!(Expr::var("a").mul(Expr::var("b")).interval(&ty_of), None);
    assert_eq!(Expr::int(i64::MAX).add(Expr::int(1)).interval(&ty_of), None);
    assert_eq!(Expr::int(i64::MIN).neg().interval(&ty_of), None);
    // Division by a range that includes zero, and `%`, are not modelled.
    assert_eq!(Expr::var("a").div(Expr::var("b")).interval(&ty_of), None);
    assert_eq!(Expr::var("a").rem(Expr::int(3)).interval(&ty_of), None);
    assert_eq!(Expr::var("missing").interval(&|_| None), None);
}

#[test]
fn dashboard_emissions_are_bounded_tightly() {
    let u8_ = |_: &str| Some(Type::uint(8));
    // speed(?wticks * 3) and fuel_level((level * 3 + ?fuel_sample) / 4).
    let speed = Expr::var("wticks").mul(Expr::int(3));
    assert_eq!(speed.interval(&u8_), Some((0, 765)));
    let fuel = Expr::var("level")
        .mul(Expr::int(3))
        .add(Expr::var("fuel_sample"))
        .div(Expr::int(4));
    assert_eq!(fuel.interval(&u8_), Some((0, 255)));
    // An ite is the union of its branches: -x reaches 128 on an i8.
    let i8_ = |_: &str| Some(Type::int(8));
    let e = Expr::ite(
        Expr::var("c").lt(Expr::int(0)),
        Expr::var("x").neg(),
        Expr::var("x").min(Expr::int(5)),
    );
    assert_eq!(e.interval(&i8_), Some((-128, 128)));
}

/// A random condition: a comparison of two random integer expressions, or
/// `!`, `&&`, `||` and boolean constants over smaller conditions.
fn gen_cond(rng: &mut Rng, vars: &[(&str, Type)], depth: usize) -> Expr {
    if depth == 0 || rng.chance(0.6) {
        let operand = |rng: &mut Rng| {
            let depth = rng.usize(0..3);
            gen_int(rng, vars, depth)
        };
        let (a, b) = (operand(rng), operand(rng));
        return match rng.usize(0..6) {
            0 => a.lt(b),
            1 => a.le(b),
            2 => a.gt(b),
            3 => a.ge(b),
            4 => a.eq(b),
            _ => a.ne(b),
        };
    }
    let sub = |rng: &mut Rng| gen_cond(rng, vars, depth - 1);
    match rng.usize(0..7) {
        0 | 1 => sub(rng).not(),
        2 | 3 => sub(rng).and(sub(rng)),
        4 | 5 => sub(rng).or(sub(rng)),
        _ => Expr::bool(rng.bool()),
    }
}

#[test]
fn every_decided_condition_evaluates_to_its_answer() {
    let vars = vars();
    let ty_of = |n: &str| vars.iter().find(|(v, _)| *v == n).map(|&(_, t)| t);
    let mut rng = Rng::new(0xdec1_de5e);
    let (mut decided, total) = ([0usize; 2], 4_000);
    for case in 0..total {
        let depth = rng.usize(0..4);
        let e = gen_cond(&mut rng, &vars, depth);
        let Some(answer) = e.decide(&ty_of) else {
            continue;
        };
        decided[usize::from(answer)] += 1;
        for k in 0..24 {
            let env = assignment(&mut rng, &vars, k % 2 == 0);
            let v = e.eval(&env).unwrap().as_bool().unwrap();
            assert_eq!(v, answer, "case {case}: {e} at {env:?}");
        }
    }
    // Both answers must come up often, or the check above is idle.
    assert!(
        decided.iter().all(|&n| n * 10 > total),
        "decided false/true: {decided:?} of {total}"
    );
}

#[test]
fn comparisons_are_decided_exactly_when_the_intervals_settle_them() {
    let ty_of = |n: &str| match n {
        "u4" => Some(Type::uint(4)),
        "s4" => Some(Type::int(4)),
        _ => None,
    };
    let (u4, s4) = (|| Expr::var("u4"), || Expr::var("s4"));
    // u4 is [0, 15]: touching bounds decide `<=`/`>=` but not `<`/`>`.
    assert_eq!(u4().le(Expr::int(15)).decide(&ty_of), Some(true));
    assert_eq!(u4().lt(Expr::int(15)).decide(&ty_of), None);
    assert_eq!(u4().ge(Expr::int(0)).decide(&ty_of), Some(true));
    assert_eq!(u4().gt(Expr::int(0)).decide(&ty_of), None);
    assert_eq!(u4().gt(Expr::int(15)).decide(&ty_of), Some(false));
    assert_eq!(Expr::int(16).le(u4()).decide(&ty_of), Some(false));
    // Equality: disjoint intervals, or one and the same point.
    assert_eq!(s4().eq(Expr::int(-9)).decide(&ty_of), Some(false));
    assert_eq!(s4().ne(Expr::int(8)).decide(&ty_of), Some(true));
    assert_eq!(s4().eq(Expr::int(-8)).decide(&ty_of), None);
    assert_eq!(Expr::int(3).eq(Expr::int(3)).decide(&ty_of), Some(true));
    assert_eq!(Expr::int(3).ne(Expr::int(3)).decide(&ty_of), Some(false));
    assert_eq!(u4().eq(u4()).decide(&ty_of), None);
    // Connectives: one decided operand can settle `&&`/`||`.
    let open = u4().lt(Expr::int(7));
    let never = u4().lt(Expr::int(0));
    assert_eq!(open.clone().and(never.clone()).decide(&ty_of), Some(false));
    assert_eq!(
        open.clone().or(never.clone().not()).decide(&ty_of),
        Some(true)
    );
    assert_eq!(open.clone().or(never).decide(&ty_of), None);
    assert_eq!(open.not().decide(&ty_of), None);
    // No interval, no answer: `%`, untyped variables, non-conditions.
    assert_eq!(u4().rem(Expr::int(3)).lt(Expr::int(9)).decide(&ty_of), None);
    assert_eq!(Expr::var("w").lt(Expr::int(0)).decide(&ty_of), None);
    assert_eq!(u4().add(Expr::int(1)).decide(&ty_of), None);
}
