//! Conformance of the §6 block store to the contract the queue relies on
//! (`append`, `split_ge`, `get`, `first_where`, `min`, `max`), driven by
//! compact `(kind, key, value)` scripts: `kind % 4` picks an append, a
//! split (`key % 4` picks where it cuts), a lookup or a search.

use proptest::prelude::*;

use crate::tests::{check_against_model, Cut, Op};

fn check_script(script: &[(u8, u64, u64)]) {
    let ops: Vec<Op> = script
        .iter()
        .map(|&(kind, key, value)| match kind % 4 {
            0 => Op::Append(value),
            1 => {
                let cut = [Cut::BelowMin, Cut::Inside, Cut::AtMax, Cut::PastMax][key as usize % 4];
                Op::SplitGe(cut, value)
            }
            2 => Op::Get(key),
            _ => Op::FirstWhere(value),
        })
        .collect();
    check_against_model(&ops);
}

proptest! {
    #[test]
    fn model_conformance(ops in proptest::collection::vec(
        (0u8..4, 0u64..128, any::<u64>()), 0..300)) {
        check_script(&ops);
    }
}

#[test]
fn model_conformance_fixed_scripts() {
    check_script(&[
        (0, 0, 50),
        (0, 0, 10),
        (0, 0, 90),
        (2, 3, 0),
        (1, 1, 1),
        (3, 0, 4),
        (2, 1, 0),
        (0, 0, 44),
        (1, 3, 0),
        (0, 0, 33),
        (3, 0, 0),
    ]);
}
