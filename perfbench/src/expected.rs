//! Outputs committed for the default seed (`expected.txt`): machine
//! digests of the design phase and Figure 5 miss rates of the fleet phase.
//! Regenerate with `--record` after a change that is meant to alter
//! outputs.

use std::collections::BTreeMap;

/// The seed whose outputs `expected.txt` records.
pub const DEFAULT_SEED: u64 = 7;

pub struct Expected {
    values: BTreeMap<String, String>,
}

impl Expected {
    pub fn committed() -> Expected {
        let values = include_str!("../expected.txt")
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.trim().to_string()))
            .collect();
        Expected { values }
    }

    /// `Ok` when `key` was recorded with exactly `value`.
    pub fn check(&self, key: &str, value: &str) -> Result<(), String> {
        match self.values.get(key) {
            Some(v) if v == value => Ok(()),
            Some(v) => Err(format!("{key}: got {value}, committed {v}")),
            None => Err(format!("{key}: no committed value")),
        }
    }
}
