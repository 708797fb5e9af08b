//! Modified Condition/Decision Coverage analysis.
//!
//! Uses **unique-cause MC/DC with masking** (the variant accepted by
//! CAST-10 and implemented by qualified tools such as RapiCover): a
//! condition is covered when two recorded evaluations exist where that
//! condition's outcome differs, the decision outcome differs, and every
//! *other* condition either has the same outcome in both evaluations or
//! is masked (not evaluated due to short-circuit) in at least one.

use crate::probes::DecisionRecord;

/// Whether condition `i` is MC/DC-covered by the recorded evaluations.
pub fn condition_covered(records: &[DecisionRecord], i: usize) -> bool {
    for (a_idx, a) in records.iter().enumerate() {
        for b in &records[a_idx + 1..] {
            if a.outcome == b.outcome {
                continue;
            }
            let (Some(ai), Some(bi)) = (
                a.conditions.get(i).copied().flatten(),
                b.conditions.get(i).copied().flatten(),
            ) else {
                continue;
            };
            if ai == bi {
                continue;
            }
            // All other conditions equal or masked.
            let others_ok = a
                .conditions
                .iter()
                .zip(&b.conditions)
                .enumerate()
                .filter(|(j, _)| *j != i)
                .all(|(_, (x, y))| match (x, y) {
                    (Some(xv), Some(yv)) => xv == yv,
                    _ => true, // masked in at least one evaluation
                });
            if others_ok {
                return true;
            }
        }
    }
    false
}

/// Number of MC/DC-covered conditions in a decision with `n` conditions.
pub fn covered_conditions(records: &[DecisionRecord], n: usize) -> usize {
    (0..n).filter(|&i| condition_covered(records, i)).count()
}

/// Strict unique-cause MC/DC *without* masking: every other condition
/// must have the same concrete outcome in both evaluations (masked
/// conditions do not count as "same"). This is the ablation variant —
/// stricter than what qualified tools accept, and unachievable for many
/// short-circuit expressions, which is exactly why masking exists.
pub fn condition_covered_strict(records: &[DecisionRecord], i: usize) -> bool {
    for (a_idx, a) in records.iter().enumerate() {
        for b in &records[a_idx + 1..] {
            if a.outcome == b.outcome {
                continue;
            }
            let (Some(ai), Some(bi)) = (
                a.conditions.get(i).copied().flatten(),
                b.conditions.get(i).copied().flatten(),
            ) else {
                continue;
            };
            if ai == bi {
                continue;
            }
            let others_ok = a
                .conditions
                .iter()
                .zip(&b.conditions)
                .enumerate()
                .filter(|(j, _)| *j != i)
                .all(|(_, (x, y))| matches!((x, y), (Some(xv), Some(yv)) if xv == yv));
            if others_ok {
                return true;
            }
        }
    }
    false
}

/// Strict-variant counterpart of [`covered_conditions`].
pub fn covered_conditions_strict(records: &[DecisionRecord], n: usize) -> usize {
    (0..n)
        .filter(|&i| condition_covered_strict(records, i))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(conds: &[Option<bool>], outcome: bool) -> DecisionRecord {
        DecisionRecord {
            conditions: conds.to_vec(),
            outcome,
        }
    }

    #[test]
    fn single_condition_needs_both_outcomes() {
        let only_true = [rec(&[Some(true)], true)];
        assert!(!condition_covered(&only_true, 0));
        let both = [rec(&[Some(true)], true), rec(&[Some(false)], false)];
        assert!(condition_covered(&both, 0));
    }

    #[test]
    fn and_gate_full_mcdc() {
        // a && b: {TT→T, FT→F, TF→F} is the classic 3-vector MC/DC set.
        let records = [
            rec(&[Some(true), Some(true)], true),
            rec(&[Some(false), None], false), // b masked
            rec(&[Some(true), Some(false)], false),
        ];
        assert!(
            condition_covered(&records, 0),
            "a independent via rows 1,2 (b masked)"
        );
        assert!(condition_covered(&records, 1), "b independent via rows 1,3");
        assert_eq!(covered_conditions(&records, 2), 2);
    }

    #[test]
    fn and_gate_partial() {
        // Only TT and TF: a never shown independent.
        let records = [
            rec(&[Some(true), Some(true)], true),
            rec(&[Some(true), Some(false)], false),
        ];
        assert!(!condition_covered(&records, 0));
        assert!(condition_covered(&records, 1));
        assert_eq!(covered_conditions(&records, 2), 1);
    }

    #[test]
    fn masking_allows_coverage() {
        // a || b with rows: {F,F→F}, {T,masked→T}: a covered since b is
        // F in one row and masked in the other.
        let records = [
            rec(&[Some(false), Some(false)], false),
            rec(&[Some(true), None], true),
        ];
        assert!(condition_covered(&records, 0));
        assert!(!condition_covered(&records, 1));
    }

    #[test]
    fn differing_other_condition_blocks() {
        // Decision flips but BOTH a and b change → neither is shown
        // independent.
        let records = [
            rec(&[Some(true), Some(true)], true),
            rec(&[Some(false), Some(false)], false),
        ];
        // For a: other condition b differs (T vs F), not masked → blocked.
        assert!(!condition_covered(&records, 0));
        assert!(!condition_covered(&records, 1));
    }

    #[test]
    fn empty_records() {
        assert!(!condition_covered(&[], 0));
        assert_eq!(covered_conditions(&[], 3), 0);
    }

    #[test]
    fn strict_rejects_masked_pairs_masking_accepts() {
        // a && b short-circuit: {F, masked → F} vs {T, T → T}. Masking
        // credits `a`; strict unique-cause does not (b is not observed
        // equal in both rows).
        let records = [
            rec(&[Some(false), None], false),
            rec(&[Some(true), Some(true)], true),
        ];
        assert!(condition_covered(&records, 0));
        assert!(!condition_covered_strict(&records, 0));
        assert_eq!(covered_conditions(&records, 2), 1);
        assert_eq!(covered_conditions_strict(&records, 2), 0);
    }

    #[test]
    fn strict_accepts_fully_observed_pairs() {
        let records = [
            rec(&[Some(true), Some(true)], true),
            rec(&[Some(false), Some(true)], false),
        ];
        assert!(condition_covered_strict(&records, 0));
        assert!(condition_covered(&records, 0));
    }

    #[test]
    fn strict_never_exceeds_masking() {
        // For a sampled set of record tables, strict ⊆ masking.
        let tables = [
            vec![
                rec(&[Some(true), Some(false)], false),
                rec(&[Some(false), None], false),
            ],
            vec![
                rec(&[Some(true), Some(true)], true),
                rec(&[Some(false), None], false),
            ],
            vec![
                rec(&[Some(true), Some(false)], false),
                rec(&[Some(true), Some(true)], true),
                rec(&[Some(false), None], false),
            ],
        ];
        for t in &tables {
            for i in 0..2 {
                if condition_covered_strict(t, i) {
                    assert!(condition_covered(t, i), "strict ⊄ masking at {i}");
                }
            }
        }
    }
}
