//! Property suite for Hopcroft minimization: on random and adversarial
//! machines, `Dfa::minimized` must return exactly what the original
//! set-based refinement (kept below as the reference) returns.

use fsmgen_automata::Dfa;
use fsmgen_testkit::strategies::{adversarial_dfa, random_dfa};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

/// Hopcroft refinement with a `VecDeque` worklist scanned by `contains`
/// and `BTreeSet` splitter images, followed by the same BFS-renumbered
/// quotient as the library.
fn reference_minimized(dfa: &Dfa) -> Dfa {
    let trimmed = dfa.trimmed();
    let n = trimmed.num_states();
    let mut reverse: Vec<[Vec<u32>; 2]> = vec![[Vec::new(), Vec::new()]; n];
    for (s, row) in trimmed.transitions().iter().enumerate() {
        for bit in 0..2 {
            reverse[row[bit] as usize][bit].push(s as u32);
        }
    }
    let mut block_of: Vec<u32> = trimmed.outputs().iter().map(|&a| u32::from(a)).collect();
    let mut blocks: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
    for (s, &b) in block_of.iter().enumerate() {
        blocks[b as usize].push(s as u32);
    }
    if blocks[1].is_empty() {
        blocks.pop();
    } else if blocks[0].is_empty() {
        blocks.swap_remove(0);
        block_of.fill(0);
    }
    let mut worklist: VecDeque<(u32, usize)> = VecDeque::new();
    for bit in 0..2 {
        let smaller = (0..blocks.len() as u32)
            .min_by_key(|&b| blocks[b as usize].len())
            .expect("at least one block");
        worklist.push_back((smaller, bit));
    }
    while let Some((splitter, bit)) = worklist.pop_front() {
        let mut x: BTreeSet<u32> = BTreeSet::new();
        for &s in &blocks[splitter as usize] {
            x.extend(reverse[s as usize][bit].iter().copied());
        }
        let affected: BTreeSet<u32> = x.iter().map(|&s| block_of[s as usize]).collect();
        for b in affected {
            let (inside, outside): (Vec<u32>, Vec<u32>) =
                blocks[b as usize].iter().partition(|s| x.contains(s));
            if inside.is_empty() || outside.is_empty() {
                continue;
            }
            let new_id = blocks.len() as u32;
            for &s in &outside {
                block_of[s as usize] = new_id;
            }
            blocks[b as usize] = inside;
            blocks.push(outside);
            for wbit in 0..2 {
                if worklist.contains(&(b, wbit)) {
                    worklist.push_back((new_id, wbit));
                } else if blocks[b as usize].len() <= blocks[new_id as usize].len() {
                    worklist.push_back((b, wbit));
                } else {
                    worklist.push_back((new_id, wbit));
                }
            }
        }
    }
    let transitions = blocks
        .iter()
        .map(|members| {
            let rep = members[0];
            [
                block_of[trimmed.step(rep, false) as usize],
                block_of[trimmed.step(rep, true) as usize],
            ]
        })
        .collect();
    let accept = blocks.iter().map(|m| trimmed.output(m[0])).collect();
    Dfa::from_parts(transitions, accept, block_of[trimmed.start() as usize]).trimmed()
}

/// `dfa` run beside a parity bit of its input that never reaches the
/// output: twice the states, every pair of twins equivalent, so
/// minimization has merging to do.
fn with_hidden_parity(dfa: &Dfa) -> Dfa {
    let n = dfa.num_states() as u32;
    let transitions = (0..2 * n)
        .map(|s| {
            let (state, parity) = (s % n, s / n);
            [
                dfa.step(state, false) + parity * n,
                dfa.step(state, true) + (parity ^ 1) * n,
            ]
        })
        .collect();
    let accept = (0..2 * n).map(|s| dfa.output(s % n)).collect();
    Dfa::from_parts(transitions, accept, dfa.start())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hopcroft_matches_reference_on_random_machines(dfa in random_dfa(1..200)) {
        prop_assert_eq!(dfa.minimized(), reference_minimized(&dfa));
    }

    #[test]
    fn hopcroft_matches_reference_on_adversarial_machines(dfa in adversarial_dfa()) {
        prop_assert_eq!(dfa.minimized(), reference_minimized(&dfa));
    }

    #[test]
    fn hopcroft_merges_hidden_state(dfa in random_dfa(1..100)) {
        let doubled = with_hidden_parity(&dfa);
        let minimized = doubled.minimized();
        prop_assert_eq!(&minimized, &reference_minimized(&doubled));
        prop_assert_eq!(minimized, dfa.minimized());
    }
}
