//! Binary encodings of multi-valued variables.
//!
//! CFSM transition functions are *multi-valued* (Section II-C speaks of
//! multi-output multi-valued functions); the BDD layer represents each
//! multi-valued variable with a block of binary variables, MSB first. The
//! bits of one variable are kept adjacent in the order (a sifting group, see
//! [`crate::reorder::SiftConfig::groups`]) so the s-graph builder can regroup
//! consecutive bit tests into one multi-way TEST node.

use crate::{Bdd, NodeRef, Var};

/// The block of BDD variables encoding one multi-valued variable, most
/// significant bit first.
///
/// # Examples
///
/// ```
/// use polis_bdd::{Bdd, encode::MvVar};
///
/// let mut bdd = Bdd::new();
/// let state = MvVar::new(&mut bdd, "state", 3); // domain {0, 1, 2}
/// let is2 = state.eq_const(&mut bdd, 2);
/// assert!(bdd.eval(is2, |v| v == state.bits()[0])); // code 10 = 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MvVar {
    name: String,
    bits: Vec<Var>,
    domain: u64,
}

impl MvVar {
    /// Declares `ceil(log2(domain))` fresh binary variables (at least one)
    /// at the bottom of `bdd`'s order, named `name.k` for bit `k` (MSB is
    /// bit `width-1`).
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0`.
    pub fn new(bdd: &mut Bdd, name: impl Into<String>, domain: u64) -> MvVar {
        assert!(domain > 0, "multi-valued domain must be non-empty");
        let name = name.into();
        let width = bits_for(domain);
        let bits = (0..width)
            .map(|k| bdd.new_var(format!("{name}.{}", width - 1 - k)))
            .collect();
        MvVar { name, bits, domain }
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The encoding bits, MSB first.
    pub fn bits(&self) -> &[Var] {
        &self.bits
    }

    /// Domain size.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Number of encoding bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The predicate `self == value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the domain.
    pub fn eq_const(&self, bdd: &mut Bdd, value: u64) -> NodeRef {
        assert!(value < self.domain, "value {value} outside domain");
        let w = self.width();
        let mut lits: Vec<(Var, bool)> = (0..w)
            .map(|k| (self.bits[k], value >> (w - 1 - k) & 1 == 1))
            .collect();
        // Deepest bit first, as `Bdd::cube` does: each literal then lands
        // above the partial cube, so every `and` is O(1) instead of a
        // re-walk of the bits conjoined so far.
        lits.sort_by_key(|&(v, _)| std::cmp::Reverse(bdd.level(v)));
        lits.into_iter().fold(NodeRef::TRUE, |cube, (v, bit)| {
            let lit = if bit { bdd.var(v) } else { bdd.nvar(v) };
            bdd.and(lit, cube)
        })
    }

    /// The characteristic function of `{ v in domain | pred(v) }`.
    pub fn such_that(&self, bdd: &mut Bdd, pred: impl Fn(u64) -> bool) -> NodeRef {
        let cubes: Vec<NodeRef> = (0..self.domain)
            .filter(|&v| pred(v))
            .map(|v| self.eq_const(bdd, v))
            .collect();
        bdd.or_all(cubes)
    }

    /// The multiplexer over the code: `cases[s]` where the bits encode `s`,
    /// and `default` on every code with no case (`s ≥ cases.len()`, which
    /// includes the out-of-domain codes). It is `ite(bit, hi half, lo
    /// half)` from the MSB down; the halves are merged from the LSB up,
    /// one `ite` per pair of adjacent codes.
    ///
    /// `before_merge(bdd, live)` runs before each `ite`, where `live` holds
    /// every handle the rest of the multiplexer still reads (merged slots
    /// read as false), so a garbage collector rooted at `live` may run
    /// there.
    pub fn select(
        &self,
        bdd: &mut Bdd,
        cases: &[NodeRef],
        default: NodeRef,
        mut before_merge: impl FnMut(&mut Bdd, &[NodeRef]),
    ) -> NodeRef {
        let w = self.width();
        let mut layer: Vec<NodeRef> = (0..1usize << w)
            .map(|s| cases.get(s).copied().unwrap_or(default))
            .collect();
        for &bit in self.bits.iter().rev() {
            for pair in 0..layer.len() / 2 {
                before_merge(bdd, &layer);
                let f = bdd.var(bit);
                let (lo, hi) = (layer[2 * pair], layer[2 * pair + 1]);
                layer[2 * pair] = NodeRef::FALSE;
                layer[2 * pair + 1] = NodeRef::FALSE;
                layer[pair] = bdd.ite(f, hi, lo);
            }
            layer.truncate(layer.len() / 2);
        }
        layer[0]
    }

    /// Decodes an assignment (a predicate on bits) into the encoded value.
    pub fn decode(&self, assignment: impl Fn(Var) -> bool) -> u64 {
        let mut v = 0u64;
        for &bit in &self.bits {
            v = (v << 1) | u64::from(assignment(bit));
        }
        v
    }
}

/// Number of bits needed to encode a domain of the given size (at least 1).
pub fn bits_for(domain: u64) -> usize {
    if domain <= 2 {
        1
    } else {
        (64 - (domain - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_domains() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(8), 3);
        assert_eq!(bits_for(9), 4);
    }

    #[test]
    fn eq_const_exactly_one_code() {
        let mut b = Bdd::new();
        let mv = MvVar::new(&mut b, "s", 4);
        for v in 0..4 {
            let f = mv.eq_const(&mut b, v);
            assert_eq!(b.sat_count(f), 1, "value {v}");
            // the satisfying assignment decodes back to v
            let cube = b.pick_cube(f).unwrap();
            let assign = |var: Var| cube.iter().any(|&(cv, val)| cv == var && val);
            assert_eq!(mv.decode(assign), v);
        }
    }

    #[test]
    fn eq_const_equals_the_literal_conjunction() {
        for width in 1..=6u32 {
            let mut b = Bdd::new();
            // A leading variable, so the bits do not start at level 0.
            b.new_var("pad");
            let mv = MvVar::new(&mut b, "s", 1 << width);
            assert_eq!(mv.width(), width as usize);
            for value in 0..1u64 << width {
                let lits: Vec<NodeRef> = mv
                    .bits()
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| {
                        if value >> (width as usize - 1 - k) & 1 == 1 {
                            b.var(v)
                        } else {
                            b.nvar(v)
                        }
                    })
                    .collect();
                let want = b.and_all(lits);
                assert_eq!(
                    mv.eq_const(&mut b, value),
                    want,
                    "width {width}, value {value}"
                );
            }
        }
    }

    #[test]
    fn select_equals_the_disjunction_of_guarded_cases() {
        for width in 1..=6u32 {
            for domain in 1..=1u64 << width {
                if bits_for(domain) != width as usize {
                    continue;
                }
                let mut b = Bdd::new();
                // Cases and default over variables above and below the bits.
                let above = b.new_var("above");
                let mv = MvVar::new(&mut b, "s", domain);
                let below = b.new_var("below");
                let (x, y) = (b.var(above), b.var(below));
                let cases: Vec<NodeRef> = (0..domain)
                    .map(|s| match s % 4 {
                        0 => b.and(x, y),
                        1 => b.xor(x, y),
                        2 => b.nvar(below),
                        _ => NodeRef::TRUE,
                    })
                    .collect();
                let default = b.or(x, y);
                let mut want = NodeRef::FALSE;
                for (s, &case) in cases.iter().enumerate() {
                    let eq = mv.eq_const(&mut b, s as u64);
                    let term = b.and(eq, case);
                    want = b.or(want, term);
                }
                let in_domain = mv.such_that(&mut b, |_| true);
                let out = b.not(in_domain);
                let term = b.and(out, default);
                want = b.or(want, term);
                assert_eq!(
                    mv.select(&mut b, &cases, default, |_, _| {}),
                    want,
                    "width {width}, domain {domain}"
                );
            }
        }
    }

    #[test]
    fn such_that_counts_matching_codes() {
        let mut b = Bdd::new();
        let s = MvVar::new(&mut b, "s", 3); // 2 bits, one invalid code
        let even = s.such_that(&mut b, |v| v % 2 == 0);
        assert_eq!(b.sat_count(even), 2); // 0 and 2
    }

    #[test]
    fn bit_names_are_derived() {
        let mut b = Bdd::new();
        let s = MvVar::new(&mut b, "st", 5);
        assert_eq!(s.width(), 3);
        assert_eq!(b.var_name(s.bits()[0]), "st.2"); // MSB
        assert_eq!(b.var_name(s.bits()[2]), "st.0");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn eq_const_out_of_domain_panics() {
        let mut b = Bdd::new();
        let s = MvVar::new(&mut b, "s", 3);
        let _ = s.eq_const(&mut b, 3);
    }
}
