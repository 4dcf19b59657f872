//! The paper harnesses' shape-check verdicts, compared with
//! `scripts/harness_verdicts.txt` by the same function as `paper check`:
//! a verdict that flips either way fails. The deterministic numbers of
//! Table I, Table III, the granularity sweep, the Section V-B ROM/RAM
//! table and the false-path bounds are pinned too, against the tables
//! EXPERIMENTS.md publishes, so a cost regression fails by number.

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

#[test]
fn harness_verdicts_match_the_committed_file() {
    if let Err(e) = polis_bench::check_verdicts() {
        panic!("{e}");
    }
}

/// The cells of a markdown table row, with digit-group spaces removed
/// (`646 838` reads `646838`).
fn cells(row: &str) -> Vec<String> {
    row.trim()
        .trim_matches('|')
        .split('|')
        .map(|c| {
            let c = c.trim();
            if c.chars().all(|ch| ch.is_ascii_digit() || ch == ' ') {
                c.replace(' ', "")
            } else {
                c.to_owned()
            }
        })
        .collect()
}

/// The body rows of a table (header and separator skipped), each cut to
/// its first `keep` cells.
fn body<'a>(lines: impl Iterator<Item = &'a str>, keep: usize) -> Vec<Vec<String>> {
    lines
        .filter(|l| l.starts_with('|') && !l.starts_with("|-"))
        .skip(1)
        .map(|l| cells(l).into_iter().take(keep).collect())
        .collect()
}

/// The body rows of the first table in `lines`.
fn first_table<'a>(lines: impl Iterator<Item = &'a str>, keep: usize) -> Vec<Vec<String>> {
    let table = lines
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'));
    body(table, keep)
}

/// The first table after the EXPERIMENTS.md heading starting `heading`.
fn documented(heading: &str, keep: usize) -> Vec<Vec<String>> {
    let section = EXPERIMENTS
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `## {heading}` section"));
    first_table(section.lines(), keep)
}

/// The first table the harness `name` prints.
fn reported(name: &str, keep: usize) -> Vec<Vec<String>> {
    let (_, report) = polis_bench::HARNESSES
        .iter()
        .find(|(n, _)| *n == name)
        .expect("a paper harness");
    let items = report();
    first_table(items.iter().flat_map(|item| item.lines()), keep)
}

#[test]
fn table1_numbers_match_experiments_md() {
    // CFSM, then estimated, measured and error for size and max cycles.
    let got = reported("table1", 7);
    assert_eq!(got, documented("Table I", 7));
    assert_eq!(got.len(), 9);
}

#[test]
fn table3_numbers_match_experiments_md() {
    // row, busy cycles, size[B]; the synthesis wall time is not pinned.
    let got = reported("table3", 3);
    assert_eq!(got, documented("Table III", 3));
    assert_eq!(got.len(), 3);
}

#[test]
fn granularity_numbers_match_experiments_md() {
    // granularity, ROM[B], busy cycles, reactions.
    let got = reported("granularity", 4);
    assert_eq!(got, documented("Granularity sweep", 4));
    assert_eq!(got.len(), 4);
}

#[test]
fn shock_absorber_numbers_match_experiments_md() {
    // implementation, ROM[B], RAM[B].
    let got = reported("shock_absorber", 3);
    assert_eq!(got, documented("Section V-B", 3));
    assert_eq!(got.len(), 3);
}

#[test]
fn falsepath_numbers_match_experiments_md() {
    // CFSM, incompatibilities, plain and aware max cycles, tighter.
    let got = reported("falsepath", 5);
    assert_eq!(got, documented("False-path analysis", 5));
    assert_eq!(got.len(), 5);
}
