//! The paper harnesses' shape-check verdicts, compared with
//! `scripts/harness_verdicts.txt` by the same function as `paper check`:
//! a verdict that flips either way fails.

#[test]
fn harness_verdicts_match_the_committed_file() {
    if let Err(e) = polis_bench::check_verdicts() {
        panic!("{e}");
    }
}
