//! Property-style tests: the BDD package against brute-force truth tables,
//! over deterministically seeded random expressions (offline-safe, no
//! external property-testing framework).

use polis_bdd::reorder::SiftConfig;
use polis_bdd::{Bdd, NodeRef, Var};
use polis_core::random::Rng;

/// A random Boolean expression over `NVARS` variables.
#[derive(Debug, Clone)]
enum BoolExpr {
    Const(bool),
    Var(usize),
    Not(Box<BoolExpr>),
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    Xor(Box<BoolExpr>, Box<BoolExpr>),
    Ite(Box<BoolExpr>, Box<BoolExpr>, Box<BoolExpr>),
}

const NVARS: usize = 6;
const CASES: u64 = 64;

/// Depth-bounded random expression, mirroring the old proptest strategy.
fn gen_expr(rng: &mut Rng, depth: usize) -> BoolExpr {
    if depth == 0 || rng.chance(0.25) {
        return if rng.chance(0.3) {
            BoolExpr::Const(rng.bool())
        } else {
            BoolExpr::Var(rng.usize(0..NVARS))
        };
    }
    match rng.usize(0..5) {
        0 => BoolExpr::Not(Box::new(gen_expr(rng, depth - 1))),
        1 => BoolExpr::And(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        2 => BoolExpr::Or(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        3 => BoolExpr::Xor(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        _ => BoolExpr::Ite(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
    }
}

/// One seeded expression per test case, varied in depth.
fn case_expr(case: u64) -> BoolExpr {
    let mut rng = Rng::new(0xb00_1e5 ^ case.wrapping_mul(0x9e37));
    let depth = 1 + (case % 5) as usize;
    gen_expr(&mut rng, depth)
}

impl BoolExpr {
    fn eval(&self, bits: u32) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Var(i) => bits & (1 << i) != 0,
            BoolExpr::Not(a) => !a.eval(bits),
            BoolExpr::And(a, b) => a.eval(bits) && b.eval(bits),
            BoolExpr::Or(a, b) => a.eval(bits) || b.eval(bits),
            BoolExpr::Xor(a, b) => a.eval(bits) ^ b.eval(bits),
            BoolExpr::Ite(c, t, e) => {
                if c.eval(bits) {
                    t.eval(bits)
                } else {
                    e.eval(bits)
                }
            }
        }
    }

    fn build(&self, bdd: &mut Bdd, vars: &[Var]) -> NodeRef {
        match self {
            BoolExpr::Const(b) => bdd.constant(*b),
            BoolExpr::Var(i) => bdd.var(vars[*i]),
            BoolExpr::Not(a) => {
                let fa = a.build(bdd, vars);
                bdd.not(fa)
            }
            BoolExpr::And(a, b) => {
                let fa = a.build(bdd, vars);
                let fb = b.build(bdd, vars);
                bdd.and(fa, fb)
            }
            BoolExpr::Or(a, b) => {
                let fa = a.build(bdd, vars);
                let fb = b.build(bdd, vars);
                bdd.or(fa, fb)
            }
            BoolExpr::Xor(a, b) => {
                let fa = a.build(bdd, vars);
                let fb = b.build(bdd, vars);
                bdd.xor(fa, fb)
            }
            BoolExpr::Ite(c, t, e) => {
                let fc = c.build(bdd, vars);
                let ft = t.build(bdd, vars);
                let fe = e.build(bdd, vars);
                bdd.ite(fc, ft, fe)
            }
        }
    }
}

fn setup(expr: &BoolExpr) -> (Bdd, Vec<Var>, NodeRef) {
    let mut bdd = Bdd::new();
    let vars: Vec<Var> = (0..NVARS).map(|i| bdd.new_var(format!("x{i}"))).collect();
    let f = expr.build(&mut bdd, &vars);
    (bdd, vars, f)
}

#[test]
fn bdd_matches_truth_table() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let (bdd, vars, f) = setup(&expr);
        for bits in 0..1u32 << NVARS {
            let assign = |v: Var| {
                let i = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << i) != 0
            };
            assert_eq!(
                bdd.eval(f, assign),
                expr.eval(bits),
                "case={case} bits={bits:06b}"
            );
        }
    }
}

#[test]
fn sat_count_matches_truth_table() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let (bdd, _vars, f) = setup(&expr);
        let brute = (0..1u32 << NVARS).filter(|&b| expr.eval(b)).count() as u128;
        assert_eq!(bdd.sat_count(f), brute, "case={case}");
    }
}

#[test]
fn restrict_matches_substitution() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let mut rng = Rng::new(case);
        let vi = rng.usize(0..NVARS);
        let val = rng.bool();
        let (mut bdd, vars, f) = setup(&expr);
        let r = bdd.restrict(f, vars[vi], val);
        // The restricted function no longer depends on the variable.
        assert!(!bdd.support(r).contains(&vars[vi]), "case={case}");
        for bits in 0..1u32 << NVARS {
            let forced = if val {
                bits | (1 << vi)
            } else {
                bits & !(1 << vi)
            };
            let assign = |v: Var| {
                let i = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << i) != 0
            };
            assert_eq!(bdd.eval(r, assign), expr.eval(forced), "case={case}");
        }
    }
}

#[test]
fn exists_is_or_of_cofactors() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let vi = (case as usize).wrapping_mul(7) % NVARS;
        let (mut bdd, vars, f) = setup(&expr);
        let c = bdd.cube([vars[vi]]);
        let e = bdd.exists_cube(f, c);
        for bits in 0..1u32 << NVARS {
            let assign = |v: Var| {
                let i = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << i) != 0
            };
            let want = expr.eval(bits | (1 << vi)) || expr.eval(bits & !(1 << vi));
            assert_eq!(bdd.eval(e, assign), want, "case={case}");
        }
    }
}

#[test]
fn sifting_preserves_function_and_never_grows() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let (mut bdd, vars, f) = setup(&expr);
        bdd.gc(&[f]);
        let before = bdd.size(&[f]);
        let after = bdd.sift(&[f], &SiftConfig::to_convergence());
        assert!(
            after <= before,
            "case={case}: sift grew the BDD: {before} -> {after}"
        );
        for bits in 0..1u32 << NVARS {
            let assign = |v: Var| {
                let i = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << i) != 0
            };
            assert_eq!(bdd.eval(f, assign), expr.eval(bits), "case={case}");
        }
    }
}

#[test]
fn random_swaps_preserve_canonicity() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let (mut bdd, vars, f) = setup(&expr);
        let mut rng = Rng::new(case ^ 0x5a5a);
        for _ in 0..rng.usize(0..12) {
            bdd.swap_levels(rng.usize(0..NVARS - 1), &[f]);
        }
        // Rebuilding the same function must land on the same node.
        let g = expr.build(&mut bdd, &vars);
        assert_eq!(f, g, "case={case}: canonicity violated after swaps");
    }
}

#[test]
fn forall_is_and_of_cofactors() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let vi = (case as usize).wrapping_mul(11) % NVARS;
        let (mut bdd, vars, f) = setup(&expr);
        let c = bdd.cube([vars[vi]]);
        let a = bdd.forall_cube(f, c);
        for bits in 0..1u32 << NVARS {
            let assign = |v: Var| {
                let i = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << i) != 0
            };
            let want = expr.eval(bits | (1 << vi)) && expr.eval(bits & !(1 << vi));
            assert_eq!(bdd.eval(a, assign), want, "case={case}");
        }
    }
}

#[test]
fn iff_and_implies_laws() {
    for case in 0..CASES {
        let ea = case_expr(case);
        let eb = case_expr(case ^ 0xffff);
        let mut bdd = Bdd::new();
        let vars: Vec<Var> = (0..NVARS).map(|i| bdd.new_var(format!("x{i}"))).collect();
        let fa = ea.build(&mut bdd, &vars);
        let fb = eb.build(&mut bdd, &vars);
        let iff = bdd.iff(fa, fb);
        let imp_ab = bdd.implies(fa, fb);
        let imp_ba = bdd.implies(fb, fa);
        // (a <-> b) == (a -> b) && (b -> a), canonically.
        let both = bdd.and(imp_ab, imp_ba);
        assert_eq!(iff, both, "case={case}");
        // a -> a is a tautology.
        assert!(bdd.implies(fa, fa).is_true(), "case={case}");
    }
}

#[test]
fn pick_cube_always_satisfies() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let (bdd, _vars, f) = setup(&expr);
        match bdd.pick_cube(f) {
            None => assert!(f.is_false(), "case={case}"),
            Some(cube) => {
                let assign = |v: Var| cube.iter().any(|&(cv, val)| cv == v && val);
                assert!(bdd.eval(f, assign), "case={case}");
            }
        }
    }
}

#[test]
fn gc_preserves_registered_roots() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let other = case_expr(case ^ 0xabcd);
        let mut bdd = Bdd::new();
        let vars: Vec<Var> = (0..NVARS).map(|i| bdd.new_var(format!("x{i}"))).collect();
        let f = expr.build(&mut bdd, &vars);
        let _garbage = other.build(&mut bdd, &vars);
        bdd.gc(&[f]);
        for bits in 0..1u32 << NVARS {
            let assign = |v: Var| {
                let i = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << i) != 0
            };
            assert_eq!(bdd.eval(f, assign), expr.eval(bits), "case={case}");
        }
        // Rebuilding after GC still hash-conses onto the kept root.
        let g = expr.build(&mut bdd, &vars);
        assert_eq!(f, g, "case={case}");
    }
}

#[test]
fn mv_such_that_counts_match() {
    for domain in 1u64..24 {
        for modulus in 1u64..6 {
            let mut bdd = Bdd::new();
            let mv = polis_bdd::encode::MvVar::new(&mut bdd, "m", domain);
            let f = mv.such_that(&mut bdd, |v| v % modulus == 0);
            let expected = (0..domain).filter(|v| v % modulus == 0).count() as u128;
            assert_eq!(bdd.sat_count(f), expected, "domain={domain} mod={modulus}");
        }
    }
}

#[test]
fn support_is_exact() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let (bdd, vars, f) = setup(&expr);
        let sup = bdd.support(f);
        for (i, &v) in vars.iter().enumerate() {
            let depends = (0..1u32 << NVARS)
                .any(|bits| expr.eval(bits | (1 << i)) != expr.eval(bits & !(1 << i)));
            assert_eq!(sup.contains(&v), depends, "case={case} var {i}");
        }
    }
}

/// Complement-edge equivalence suite: every derived operator, rebuilt the
/// "old" way from its defining identity over `not`, must land on the exact
/// handle the direct ("new", ITE-normalized) call produces — checked on
/// seeded random functions up to 12 variables with a truth-table oracle
/// per case confirming both against brute force.
#[test]
fn derived_ops_match_their_negation_identities_up_to_12_vars() {
    for nvars in [6usize, 9, 12] {
        for case in 0..24u64 {
            let mut rng = Rng::new(0xc0_0b1a5 ^ (nvars as u64) << 40 ^ case.wrapping_mul(0x9e37));
            let mut bdd = Bdd::new();
            let vars: Vec<Var> = (0..nvars).map(|i| bdd.new_var(format!("x{i}"))).collect();
            let ea = case_expr(case.wrapping_mul(3) ^ nvars as u64);
            let eb = case_expr(case.wrapping_mul(5) ^ 0x7777);
            // Spread the 6-var expressions over the wider rail so high
            // levels participate too.
            let lo_slice = &vars[..NVARS];
            let hi_slice = &vars[nvars - NVARS..];
            let fa = ea.build(&mut bdd, lo_slice);
            let fb = eb.build(&mut bdd, hi_slice);

            // or(a, b) == !(!a & !b)
            let direct_or = bdd.or(fa, fb);
            let (na, nb) = (bdd.not(fa), bdd.not(fb));
            let conj = bdd.and(na, nb);
            assert_eq!(direct_or, bdd.not(conj), "or nvars={nvars} case={case}");
            // xor(a, b) == ite(a, !b, b), iff == !xor
            let direct_xor = bdd.xor(fa, fb);
            let via_ite = bdd.ite(fa, nb, fb);
            assert_eq!(direct_xor, via_ite, "xor nvars={nvars} case={case}");
            let direct_iff = bdd.iff(fa, fb);
            assert_eq!(
                direct_iff,
                bdd.not(direct_xor),
                "iff nvars={nvars} case={case}"
            );
            // implies(a, b) == !(a & !b)
            let direct_imp = bdd.implies(fa, fb);
            let anb = bdd.and(fa, nb);
            assert_eq!(direct_imp, bdd.not(anb), "imp nvars={nvars} case={case}");
            // and_not(a, b) == a & !b
            let direct_andnot = bdd.and_not(fa, fb);
            assert_eq!(direct_andnot, anb, "and_not nvars={nvars} case={case}");
            // Double negation is the identity handle.
            let nna = bdd.not(na);
            assert_eq!(nna, fa, "double-neg nvars={nvars} case={case}");

            // Truth-table oracle on a random sample of assignments (full
            // 2^12 enumeration per case would be slow in debug builds).
            for _ in 0..64 {
                let bits: u64 = rng.usize(0..1 << nvars) as u64;
                let assign = |v: Var| {
                    let i = vars.iter().position(|&x| x == v).unwrap();
                    bits & (1 << i) != 0
                };
                let (a, b) = (bdd.eval(fa, assign), bdd.eval(fb, assign));
                assert_eq!(bdd.eval(direct_or, assign), a | b);
                assert_eq!(bdd.eval(direct_xor, assign), a ^ b);
                assert_eq!(bdd.eval(direct_iff, assign), a == b);
                assert_eq!(bdd.eval(direct_imp, assign), !a | b);
                assert_eq!(bdd.eval(direct_andnot, assign), a & !b);
            }
            bdd.check_canonical();
        }
    }
}

/// `not()` is a zero-allocation bit flip on arbitrary seeded functions:
/// no `mk` calls, no cache probes, and the complement evaluates opposite
/// everywhere.
#[test]
fn not_is_free_on_random_functions() {
    for case in 0..CASES {
        let expr = case_expr(case);
        let (mut bdd, vars, f) = setup(&expr);
        let mk_before = bdd.mk_calls();
        let lookups_before = bdd.stats().cache_lookups;
        let nf = bdd.not(f);
        assert_eq!(bdd.mk_calls(), mk_before, "case={case}: not() called mk");
        assert_eq!(
            bdd.stats().cache_lookups,
            lookups_before,
            "case={case}: not() probed the op cache"
        );
        assert_eq!(bdd.not(nf), f, "case={case}: double negation");
        for bits in 0..1u32 << NVARS {
            let assign = |v: Var| {
                let i = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << i) != 0
            };
            assert_eq!(bdd.eval(nf, assign), !expr.eval(bits), "case={case}");
        }
    }
}

/// Sifting and random swaps keep the arena canonical under complement
/// edges (the walker asserts no complemented hi edges survive a reorder).
#[test]
fn reordering_keeps_the_arena_canonical() {
    for case in 0..16u64 {
        let expr = case_expr(case);
        let (mut bdd, _vars, f) = setup(&expr);
        let mut rng = Rng::new(case ^ 0xfeed);
        for _ in 0..rng.usize(1..10) {
            bdd.swap_levels(rng.usize(0..NVARS - 1), &[f]);
            bdd.check_canonical();
        }
        bdd.sift(&[f], &SiftConfig::to_convergence());
        bdd.check_canonical();
    }
}
