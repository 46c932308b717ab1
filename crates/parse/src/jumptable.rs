//! Jump-table target evaluation.
//!
//! The slicing analysis ([`pba_dataflow::slice_indirect_jump_with`])
//! recognizes the dispatch *form*; this module reads the actual table
//! bytes and produces targets:
//!
//! * **bounded** tables (a `cmp`+`ja` guard was found on some path) read
//!   exactly `bound` entries — the minimum over the per-path bounds;
//! * **unbounded** tables (masked guards, over-deep guards) scan until
//!   an entry stops looking like a code address or the entry cap —
//!   the deliberate over-approximation that the finalization stage
//!   clamps with the non-overlapping-tables observation (Section 5.4).

use crate::input::ParseInput;
use pba_dataflow::{JumpTableForm, PathFact};

/// Combined decision from all path facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDecision {
    /// The dispatch form.
    pub form: JumpTableForm,
    /// Entry count to read, if any path recovered a guard bound.
    pub bound: Option<u64>,
}

/// Merge per-path facts: pick the (unique) form and the minimum bound.
pub fn decide(facts: &[PathFact]) -> Option<TableDecision> {
    let mut form: Option<JumpTableForm> = None;
    let mut bound: Option<u64> = None;
    for f in facts {
        let Some(pf) = f.form else { continue };
        // Conflicting forms across paths: keep the first with a bound,
        // else the first (conservative).
        if form.is_none() || (f.bound.is_some() && bound.is_none()) {
            form = Some(pf);
        }
        if let Some(b) = f.bound {
            bound = Some(bound.map_or(b, |cur: u64| cur.min(b)));
        }
    }
    form.map(|f| TableDecision { form: f, bound })
}

/// Read table entries and produce `(targets, bounded)`.
pub fn eval_targets(
    input: &ParseInput,
    decision: &TableDecision,
    max_entries: usize,
) -> (Vec<u64>, bool) {
    let (table, stride, relative, base) = match decision.form {
        JumpTableForm::Absolute { table, scale, .. } => (table, scale, false, 0),
        JumpTableForm::Relative { table, base, scale, .. } => (table, scale, true, base),
    };
    let bounded = decision.bound.is_some();
    let limit = decision.bound.map(|b| b as usize).unwrap_or(max_entries).min(max_entries);
    // Unbounded scans additionally require targets to stay within one
    // contiguous code region: a switch's case blocks sit together right
    // after the dispatch, while entries read past the real table end
    // (the next table's data under the wrong base) land far away. The
    // first discontinuity ends the scan.
    const REGION_SLACK: u64 = 96;
    let mut region: Option<(u64, u64)> = None;
    let mut targets = Vec::new();
    for i in 0..limit {
        // An entry whose address or target overflows is unreadable: the
        // scan ends there, as it does at the end of the mapped data.
        let Some(addr) = (i as u64).checked_mul(stride as u64).and_then(|o| table.checked_add(o))
        else {
            break;
        };
        let target = match (relative, input.read(addr, stride as usize)) {
            (false, Some(b)) if stride == 8 => u64::from_le_bytes(b.try_into().unwrap()),
            (true, Some(b)) if stride == 4 => {
                let rel = i32::from_le_bytes(b.try_into().unwrap());
                match base.checked_add_signed(rel as i64) {
                    Some(t) => t,
                    None => break,
                }
            }
            _ => break,
        };
        if !input.valid_code_addr(target) {
            // Invalid entry: a bounded table is simply wrong here (keep
            // scanning — compilers don't emit invalid entries inside the
            // bound); an unbounded scan stops.
            if bounded {
                continue;
            }
            break;
        }
        if !bounded {
            match region {
                None => region = Some((target, target)),
                Some((lo, hi)) => {
                    if target + REGION_SLACK < lo || target > hi + REGION_SLACK {
                        break;
                    }
                    region = Some((lo.min(target), hi.max(target)));
                }
            }
        }
        targets.push(target);
    }
    (targets, bounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_cfg::CodeRegion;
    use pba_isa::{Arch, Reg};

    fn input_with_table(entries: &[u64]) -> ParseInput {
        let mut ro = Vec::new();
        for &e in entries {
            ro.extend_from_slice(&e.to_le_bytes());
        }
        ParseInput::from_parts(
            CodeRegion::new(Arch::X86_64, 0x1000, vec![0x90; 0x100]),
            vec![(0x2000, ro)],
            vec![],
        )
    }

    #[test]
    fn bounded_absolute_reads_exactly_bound() {
        let input = input_with_table(&[0x1000, 0x1010, 0x1020, 0x1030]);
        let d = TableDecision {
            form: JumpTableForm::Absolute { table: 0x2000, scale: 8, index: Reg::RDI },
            bound: Some(3),
        };
        let (targets, bounded) = eval_targets(&input, &d, 1024);
        assert!(bounded);
        assert_eq!(targets, vec![0x1000, 0x1010, 0x1020]);
    }

    #[test]
    fn unbounded_scan_stops_at_invalid() {
        // 2 valid entries then garbage.
        let input = input_with_table(&[0x1000, 0x1040, 0xdead_beef_0000]);
        let d = TableDecision {
            form: JumpTableForm::Absolute { table: 0x2000, scale: 8, index: Reg::RDI },
            bound: None,
        };
        let (targets, bounded) = eval_targets(&input, &d, 1024);
        assert!(!bounded);
        assert_eq!(targets, vec![0x1000, 0x1040]);
    }

    #[test]
    fn unbounded_scan_respects_cap() {
        let entries: Vec<u64> = (0..64).map(|i| 0x1000 + i).collect();
        let input = input_with_table(&entries);
        let d = TableDecision {
            form: JumpTableForm::Absolute { table: 0x2000, scale: 8, index: Reg::RDI },
            bound: None,
        };
        let (targets, _) = eval_targets(&input, &d, 16);
        assert_eq!(targets.len(), 16);
    }

    #[test]
    fn relative_entries_resolve_against_base() {
        let mut ro = Vec::new();
        for rel in [0x10i32, 0x40, -0x20] {
            ro.extend_from_slice(&rel.to_le_bytes());
        }
        let input = ParseInput::from_parts(
            CodeRegion::new(Arch::X86_64, 0x2000 - 0x40, vec![0x90; 0x200]),
            vec![(0x2000, ro)],
            vec![],
        );
        let d = TableDecision {
            form: JumpTableForm::Relative {
                table: 0x2000,
                base: 0x2000,
                scale: 4,
                width: 4,
                index: Reg::RSI,
            },
            bound: Some(3),
        };
        let (targets, _) = eval_targets(&input, &d, 1024);
        assert_eq!(targets, vec![0x2010, 0x2040, 0x1FE0]);
    }

    #[test]
    fn decide_takes_min_bound_over_paths() {
        let form = JumpTableForm::Absolute { table: 0x2000, scale: 8, index: Reg::RDI };
        let facts = vec![
            PathFact { form: Some(form), bound: None },
            PathFact { form: Some(form), bound: Some(9) },
            PathFact { form: None, bound: None },
            PathFact { form: Some(form), bound: Some(5) },
        ];
        let d = decide(&facts).unwrap();
        assert_eq!(d.bound, Some(5));
        assert_eq!(d.form, form);
    }

    #[test]
    fn decide_none_without_forms() {
        assert!(decide(&[PathFact { form: None, bound: Some(3) }]).is_none());
        assert!(decide(&[]).is_none());
    }
}
