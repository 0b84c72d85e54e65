//! Stage 2b of the CFG analyzer: the intraprocedural lockset/inverse
//! dataflow pass. It checks Rule 2 (lock-before-mutate), Rule 3
//! (inverse-pairing), and Rule 4 (two-phase) path-sensitively, and
//! adds the `branch-inverse-divergence` rule.
//!
//! # The lattice
//!
//! Per program point the state is:
//!
//! - `locks` — the set of abstract locks *must*-held (intersection at
//!   condition joins: a base call is safe only if every path to it
//!   acquired a lock).
//! - `pending` — mutating base calls whose inverse has not been logged
//!   yet (*may*-analysis: union at joins; a site pending on any path is
//!   a liability). Each site carries the `let` bindings of its result.
//! - `orphans` — `log_undo` registrations seen while nothing was
//!   pending (forward-order pushes; flagged if a mutation follows).
//!
//! # Join semantics
//!
//! At a [`BlockKind::CondJoin`], a pending site present on some but not
//! all predecessor paths *diverged*: one branch logged the inverse, the
//! other did not. If the branch condition mentions the mutation's
//! result binding (`let r = self.base.add(k); if r { log_undo }`), the
//! uncovered path is the one where the mutation was a no-op — that is
//! the boosted idiom, not a bug, and the site is silently retired.
//! Otherwise it is a `branch-inverse-divergence` finding. At a
//! [`BlockKind::LoopHead`] pending sites merge silently (a `continue`
//! before the undo just defers it to the next iteration); only the
//! exit reports what is still pending.

use crate::analysis::FileAnalysis;
use crate::analysis::HandlerKind;
use crate::cfg::{BasicBlock, BlockKind, Cfg, Event};
use crate::engine::{Diagnostic, RuleOutput};
use std::collections::{BTreeMap, BTreeSet};

/// Deliberate breakages of the transfer/join functions, used by the
/// mutation tests to prove the self-tests would catch an analyzer
/// regression. Not part of the public interface.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMutation {
    #[default]
    None,
    /// Acquisitions no longer enter the lockset (breaks Rule 2's
    /// must-analysis: every covered base call looks uncovered).
    IgnoreAcquires,
    /// Locksets join by union instead of intersection (turns the
    /// must-analysis into may: one-branch locks look like full cover).
    UnionAtJoins,
}

/// A mutating base call whose inverse is still unlogged.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingSite {
    idx: usize,
    method: String,
    bindings: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct State {
    locks: BTreeSet<String>,
    pending: Vec<PendingSite>,
    orphans: Vec<usize>,
}

/// Context for one function's dataflow run.
pub struct FnContext<'a> {
    pub fa: &'a FileAnalysis,
    /// Syntactic acquire summaries of same-file txn fns (callee name →
    /// receiver paths), for splicing helper acquisitions into Rule 2.
    pub local_acquires: &'a BTreeMap<String, Vec<(String, usize)>>,
    pub mutation: TransferMutation,
}

/// Run the lockset dataflow over `cfg`, appending diagnostics to `out`.
pub fn check_function(ctx: &FnContext<'_>, cfg: &Cfg, out: &mut RuleOutput) {
    let n = cfg.blocks.len();
    let preds = cfg.preds();
    let mut ins: Vec<Option<State>> = vec![None; n];
    let mut outs: Vec<Option<State>> = vec![None; n];

    // Fixpoint. Blocks are created in roughly topological order, so a
    // forward sweep converges quickly; the cap guards pathologies.
    let cap = 4 * n + 16;
    for _ in 0..cap {
        let mut changed = false;
        for b in 0..n {
            let in_state = if b == 0 {
                Some(State::default())
            } else {
                merge(ctx, &cfg.blocks[b], &preds[b], &outs, None)
            };
            let Some(in_state) = in_state else { continue };
            let out_state = transfer(ctx, &cfg.blocks[b], in_state.clone(), None);
            if ins[b].as_ref() != Some(&in_state) || outs[b].as_ref() != Some(&out_state) {
                ins[b] = Some(in_state);
                outs[b] = Some(out_state);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Emission pass over the stabilized states: diagnostics are
    // produced exactly once, from the final in-states.
    let mut emitted: BTreeSet<(&'static str, usize)> = BTreeSet::new();
    let mut diags: Vec<(&'static str, usize, String)> = Vec::new();
    for (b, block_preds) in preds.iter().enumerate() {
        let in_state = if b == 0 {
            Some(State::default())
        } else {
            merge(ctx, &cfg.blocks[b], block_preds, &outs, Some(&mut diags))
        };
        let Some(in_state) = in_state else { continue };
        transfer(ctx, &cfg.blocks[b], in_state, Some(&mut diags));
    }
    for (rule, idx, message) in diags {
        if !emitted.insert((rule, idx)) {
            continue;
        }
        let t = &ctx.fa.tokens[idx];
        out.diags.push(Diagnostic {
            rule,
            path: ctx.fa.path.clone(),
            line: t.line,
            col: t.col,
            message,
            suppressed: None,
        });
    }
}

type Sink<'a> = Option<&'a mut Vec<(&'static str, usize, String)>>;

fn merge(
    ctx: &FnContext<'_>,
    block: &BasicBlock,
    preds: &[usize],
    outs: &[Option<State>],
    mut sink: Sink<'_>,
) -> Option<State> {
    let states: Vec<&State> = preds.iter().filter_map(|&p| outs[p].as_ref()).collect();
    if states.is_empty() {
        return None;
    }
    // Locks: must-intersection (union under the UnionAtJoins mutation).
    let mut locks = states[0].locks.clone();
    for s in &states[1..] {
        if ctx.mutation == TransferMutation::UnionAtJoins {
            locks.extend(s.locks.iter().cloned());
        } else {
            locks.retain(|l| s.locks.contains(l));
        }
    }
    // Pending: may-union, ordered by site.
    let mut pending: Vec<PendingSite> = Vec::new();
    for s in &states {
        for site in &s.pending {
            if !pending.iter().any(|p| p.idx == site.idx) {
                pending.push(site.clone());
            }
        }
    }
    pending.sort_by_key(|p| p.idx);
    // At a condition join, a site missing from some path diverged.
    if let BlockKind::CondJoin { cond_idents } = &block.kind {
        pending.retain(|site| {
            let everywhere = states
                .iter()
                .all(|s| s.pending.iter().any(|p| p.idx == site.idx));
            if everywhere {
                return true;
            }
            let result_conditioned = site.bindings.iter().any(|b| cond_idents.contains(b));
            if !result_conditioned {
                if let Some(sink) = sink.as_deref_mut() {
                    sink.push((
                        "branch-inverse-divergence",
                        site.idx,
                        format!(
                            "inverse for `self.base.{}(..)` is logged on one branch but not on \
                             every path reaching this join — each path from a mutation must log \
                             its inverse (Rule 3), or condition the branch on the mutation's \
                             result",
                            site.method
                        ),
                    ));
                }
            }
            // Retired either way: result-conditioned cover is the
            // boosted idiom; a divergence has been reported once.
            false
        });
    }
    let mut orphans: Vec<usize> = Vec::new();
    for s in &states {
        for &o in &s.orphans {
            if !orphans.contains(&o) {
                orphans.push(o);
            }
        }
    }
    orphans.sort_unstable();
    // The exit block: anything still pending can reach a return/`?`
    // without its inverse being logged.
    if block.kind == BlockKind::Exit {
        if let Some(sink) = sink {
            for site in &pending {
                sink.push((
                    "inverse-pairing",
                    site.idx,
                    format!(
                        "mutating base call `self.base.{}(..)` can reach the function exit \
                         without an undo/deferred-action registration on some path (Rule 3)",
                        site.method
                    ),
                ));
            }
        }
        pending.clear();
    }
    Some(State {
        locks,
        pending,
        orphans,
    })
}

fn transfer(ctx: &FnContext<'_>, block: &BasicBlock, mut st: State, mut sink: Sink<'_>) -> State {
    for ev in &block.events {
        match ev {
            Event::Acquire { lock, .. } => {
                if ctx.mutation != TransferMutation::IgnoreAcquires {
                    st.locks.insert(lock.clone());
                }
            }
            Event::Call { callee, .. } => {
                // One-level interprocedural splice: a helper that
                // acquires on every syntactic path contributes its
                // locks (it holds them two-phase once it returns).
                if ctx.mutation != TransferMutation::IgnoreAcquires {
                    if let Some(acqs) = ctx.local_acquires.get(callee) {
                        for (lock, _) in acqs {
                            st.locks.insert(lock.clone());
                        }
                    }
                }
            }
            Event::BaseCall {
                method,
                idx,
                mutating,
                bindings,
            } => {
                if st.locks.is_empty() {
                    if let Some(sink) = sink.as_deref_mut() {
                        sink.push((
                            "lock-before-mutate",
                            *idx,
                            format!(
                                "call `self.base.{method}(..)` is reachable with no abstract \
                                 lock held — acquire the abstract lock on every path before \
                                 touching the base object (Rule 2)"
                            ),
                        ));
                    }
                }
                if *mutating {
                    // Any forward-order undo push is now provably
                    // before a mutation: flag it.
                    if let Some(sink) = sink.as_deref_mut() {
                        for &o in &st.orphans {
                            sink.push((
                                "inverse-pairing",
                                o,
                                "undo logged before the base call it inverts (forward-order \
                                 push): if the call never happens, abort replays a spurious \
                                 inverse"
                                    .to_string(),
                            ));
                        }
                    }
                    st.orphans.clear();
                    if !st.pending.iter().any(|p| p.idx == *idx) {
                        st.pending.push(PendingSite {
                            idx: *idx,
                            method: method.clone(),
                            bindings: bindings.clone(),
                        });
                    }
                }
            }
            Event::Register { kind, idx } => match kind {
                HandlerKind::Undo | HandlerKind::DeferCommit | HandlerKind::DeferAbort => {
                    if st.pending.is_empty() {
                        if *kind == HandlerKind::Undo && !st.orphans.contains(idx) {
                            st.orphans.push(*idx);
                        }
                    } else {
                        // FIFO: the oldest outstanding mutation is the
                        // one this registration inverts (matches the
                        // in-order idiom the old line rule enforced).
                        st.pending.remove(0);
                    }
                }
                // A version install is commit-time bookkeeping for the
                // multi-version read path, not an inverse.
                _ => {}
            },
            Event::Release { idx, message } => {
                if let Some(sink) = sink.as_deref_mut() {
                    sink.push(("two-phase-discipline", *idx, message.clone()));
                }
            }
            Event::LetElseNegative { bindings } => {
                // The pattern did not match on this path: a pending
                // mutation whose result fed the pattern never happened.
                st.pending
                    .retain(|p| !p.bindings.iter().any(|b| bindings.contains(b)));
            }
        }
    }
    st
}
