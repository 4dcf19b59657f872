//! Seeded spec mutation: the four example specs cut short, with a span
//! deleted or duplicated, or with characters flipped. Every mutant either
//! fails `parse_spec` with a positioned error (line > 0) or prints, with
//! `emit_spec_source`, to text that parses again and prints identically.
//! A panic anywhere fails the test, naming the mutant.

use polis_core::random::Rng;
use polis_core::workloads::EXAMPLES;
use polis_lang::{emit_spec_source, parse_spec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per example spec and mutation kind.
const PER_KIND: usize = 60;

/// What a character flip writes: the spec alphabet, plus characters no
/// spec has.
const FLIPS: &str = "azAZ_09 \t\n{}();:,.=<>!&|+-*/%?@[]#\"'\\é\0";

/// The kinds of mutation.
const KINDS: [&str; 4] = ["truncate", "delete", "duplicate", "flip"];

/// A span of `src`: half the time whole lines, otherwise any characters.
fn span(src: &[char], rng: &mut Rng) -> (usize, usize) {
    let a = rng.usize(0..src.len());
    let b = (a + 1 + rng.usize(0..src.len() / 4 + 1)).min(src.len());
    if rng.bool() {
        let start = src[..a]
            .iter()
            .rposition(|&c| c == '\n')
            .map_or(0, |i| i + 1);
        let end = src[b..]
            .iter()
            .position(|&c| c == '\n')
            .map_or(src.len(), |i| b + i + 1);
        (start, end)
    } else {
        (a, b)
    }
}

fn mutate(src: &str, kind: &str, rng: &mut Rng) -> String {
    let mut s: Vec<char> = src.chars().collect();
    match kind {
        "truncate" => s.truncate(rng.usize(0..s.len())),
        "delete" => {
            let (a, b) = span(&s, rng);
            s.drain(a..b);
        }
        "duplicate" => {
            let (a, b) = span(&s, rng);
            let copy: Vec<char> = s[a..b].to_vec();
            let at = if rng.bool() {
                b
            } else {
                rng.usize(0..s.len() + 1)
            };
            s.splice(at..at, copy);
        }
        _ => {
            let flips: Vec<char> = FLIPS.chars().collect();
            for _ in 0..1 + rng.usize(0..3) {
                let at = rng.usize(0..s.len());
                s[at] = flips[rng.usize(0..flips.len())];
            }
        }
    }
    s.into_iter().collect()
}

/// `Err` with what is wrong when `src` neither fails with a position nor
/// prints to a fixpoint.
fn check(name: &str, src: &str) -> Result<(), String> {
    let spec = match parse_spec(name, src) {
        Err(e) if e.line > 0 => return Ok(()),
        Err(e) => return Err(format!("positionless error: {e}")),
        Ok(spec) => spec,
    };
    let printed = emit_spec_source(&spec.network, &spec.properties);
    let again = parse_spec(name, &printed)
        .map_err(|e| format!("printed spec does not parse: {e}\n{printed}"))?;
    let reprinted = emit_spec_source(&again.network, &again.properties);
    if reprinted != printed {
        return Err(format!(
            "printing is not a fixpoint:\n{printed}\n---\n{reprinted}"
        ));
    }
    Ok(())
}

#[test]
fn mutated_specs_fail_with_a_position_or_print_to_a_fixpoint() {
    let mut rng = Rng::new(0x5bec_0f2a);
    let mut failures = Vec::new();
    for (name, src) in EXAMPLES {
        for kind in KINDS {
            for _ in 0..PER_KIND {
                let mutant = mutate(src, kind, &mut rng);
                let outcome = catch_unwind(AssertUnwindSafe(|| check(name, &mutant)))
                    .unwrap_or_else(|_| Err("panicked".to_owned()));
                if let Err(why) = outcome {
                    failures.push(format!("{name} ({kind}): {why}\n{mutant}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} mutants failed; the first:\n{}",
        failures.len(),
        failures[0]
    );
}
