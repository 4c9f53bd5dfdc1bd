//! The grammar linter: release-mode validation of the reduction invariants
//! (paper §II-A) on a *loaded*, read-only grammar.
//!
//! The debug validator ([`crate::grammar::invariants`]) runs inside a live
//! [`crate::grammar::builder::GrammarBuilder`] and can consult the builder's
//! digram index; this pass needs nothing but the grammar itself, so it also
//! works on grammars deserialized from a trace file. It is defensive by
//! construction: structural checks (live references, non-zero exponents,
//! acyclicity) run *first*, on the raw rule table, and the deeper passes —
//! which assume a DAG — are skipped as soon as structure is broken. That
//! makes it safe to point at arbitrary bytes that happened to parse.
//!
//! Cost is O(|grammar|): every check walks rule bodies once; the optional
//! event-index annotation adds one [`GrammarIndex`] build (also linear).

use crate::grammar::{Grammar, GrammarIndex, Loc, RuleId, Symbol};
use crate::util::{FxHashMap, FxHashSet};

use super::{Diagnostic, Pass, Severity};

/// Options for [`lint_grammar`].
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// When set, the grammar's expanded length must equal this (the
    /// `event_count` stored next to the grammar in a trace file).
    pub expected_events: Option<u64>,
    /// Annotate diagnostics with the approximate index of the anchored
    /// location in the expanded event stream (first occurrence). Costs one
    /// linear [`GrammarIndex`] build; disable on the load hot path.
    pub annotate_positions: bool,
}

fn err(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(Severity::Error, Pass::Lint, code, message)
}

fn warn(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(Severity::Warning, Pass::Lint, code, message)
}

/// Lints one grammar, returning every violation found (not just the first).
///
/// Diagnostics carry no thread id; callers analyzing a multi-thread trace
/// attach it with [`Diagnostic::on_thread`].
pub fn lint_grammar(g: &Grammar, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let root = g.root();
    if !g.is_live(root) {
        diags.push(err("root-missing", format!("root rule {root} is vacant")));
        return diags;
    }

    // -- structural pass: everything later assumes this holds -------------
    let mut structural_ok = true;
    for (id, rule) in g.iter_rules() {
        if id != root && rule.body.is_empty() {
            diags.push(
                err(
                    "empty-body",
                    format!("non-root rule {id} has an empty body"),
                )
                .at(id.0, 0),
            );
            structural_ok = false;
        }
        for (pos, u) in rule.body.iter().enumerate() {
            if u.count == 0 {
                diags.push(
                    err(
                        "zero-count",
                        format!("zero repetition exponent at {id}[{pos}]"),
                    )
                    .at(id.0, pos),
                );
                structural_ok = false;
            }
            if let Symbol::Rule(r) = u.symbol {
                if !g.is_live(r) {
                    diags.push(
                        err(
                            "dead-rule-ref",
                            format!("{id}[{pos}] references dead rule {r}"),
                        )
                        .at(id.0, pos),
                    );
                    structural_ok = false;
                }
            }
        }
    }

    // -- acyclicity: the fallible walk (dead references are skipped; the
    //    structural pass has flagged them) ---------------------------------
    if let Err(cycle_rule) = g.try_topological_order() {
        diags.push(err(
            "rule-cycle",
            format!("rule graph has a cycle through {cycle_rule}"),
        ));
        return diags;
    }
    if !structural_ok {
        return diags;
    }

    // The grammar is now a structurally sound DAG: the index (and with it
    // the event-position annotation) is safe to build.
    let index = opts.annotate_positions.then(|| GrammarIndex::build(g));
    let starts = index.as_ref().map(|ix| ix.rule_first_starts(g));
    let annotate = |d: Diagnostic| -> Diagnostic {
        if let (Some(ix), Some(starts), Some(r), Some(pos)) =
            (index.as_ref(), starts.as_ref(), d.rule, d.pos)
        {
            if let Some(start) = starts.get(r as usize).copied().flatten() {
                return d.near_event(start + ix.prefix_len(RuleId(r), pos));
            }
        }
        d
    };

    // -- digram uniqueness + run merging + refcount collection ------------
    let mut pairs: FxHashMap<(Symbol, Symbol), Loc> = FxHashMap::default();
    let mut refcounts: FxHashMap<RuleId, u32> = FxHashMap::default();
    for (id, rule) in g.iter_rules() {
        if id != root && rule.body.len() == 1 && rule.body[0].count == 1 {
            diags.push(annotate(
                warn(
                    "rule-alias",
                    format!("rule {id} is an alias (single unit use)"),
                )
                .at(id.0, 0),
            ));
        }
        for (pos, u) in rule.body.iter().enumerate() {
            if let Symbol::Rule(r) = u.symbol {
                *refcounts.entry(r).or_insert(0) += u.count;
            }
            if pos + 1 < rule.body.len() {
                let next = rule.body[pos + 1];
                if next.symbol == u.symbol {
                    diags.push(annotate(
                        err(
                            "unmerged-run",
                            format!("adjacent equal symbols (unmerged run) at {id}[{pos}]"),
                        )
                        .at(id.0, pos),
                    ));
                }
                let key = (u.symbol, next.symbol);
                if let Some(prev) = pairs.insert(key, Loc { rule: id, pos }) {
                    diags.push(annotate(
                        err(
                            "digram-duplicate",
                            format!(
                                "digram duplicated at {id}[{pos}] and {}[{}]",
                                prev.rule, prev.pos
                            ),
                        )
                        .at(id.0, pos),
                    ));
                }
            }
        }
    }

    // -- refcount recount, rule utility, root refcount ---------------------
    for (id, rule) in g.iter_rules() {
        let expected = refcounts.get(&id).copied().unwrap_or(0);
        if rule.refcount != expected {
            diags.push(annotate(
                err(
                    "refcount-mismatch",
                    format!("rule {id} refcount {} != recount {expected}", rule.refcount),
                )
                .at(id.0, 0),
            ));
        }
        if id != root && expected < 2 {
            diags.push(annotate(
                warn(
                    "rule-utility",
                    format!("rule utility violated: {id} used {expected} time(s)"),
                )
                .at(id.0, 0),
            ));
        }
        if id == root && expected != 0 {
            diags.push(err(
                "root-referenced",
                format!("root is referenced {expected} time(s)"),
            ));
        }
    }

    // -- reachability ------------------------------------------------------
    let mut reachable: FxHashSet<RuleId> = FxHashSet::default();
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        if !reachable.insert(r) {
            continue;
        }
        for u in &g.rule(r).body {
            if let Symbol::Rule(child) = u.symbol {
                stack.push(child);
            }
        }
    }
    for (id, _) in g.iter_rules() {
        if !reachable.contains(&id) {
            diags.push(annotate(
                warn(
                    "unreachable-rule",
                    format!("rule {id} unreachable from root"),
                )
                .at(id.0, 0),
            ));
        }
    }

    // -- losslessness of length -------------------------------------------
    if let Some(expected) = opts.expected_events {
        let got = g.trace_len();
        if got != expected {
            diags.push(err(
                "trace-length-mismatch",
                format!("grammar expands to {got} events but the trace declares {expected}"),
            ));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::grammar::builder::GrammarBuilder;
    use crate::grammar::{Rule, SymbolUse};

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    fn built(seq: &[u32]) -> Grammar {
        let mut b = GrammarBuilder::new();
        for &s in seq {
            b.push(e(s));
        }
        b.into_grammar().compact()
    }

    fn assert_clean(g: &Grammar, events: u64) {
        let diags = lint_grammar(
            g,
            &LintOptions {
                expected_events: Some(events),
                annotate_positions: true,
            },
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn builder_output_is_clean() {
        let seq: Vec<u32> = (0..60).flat_map(|i| [0, 1, 1, 2, i % 3]).collect();
        assert_clean(&built(&seq), seq.len() as u64);
    }

    #[test]
    fn cyclic_grammar_reported_not_panicked() {
        let mut g = built(&[0, 1, 0, 1, 0, 1, 2]);
        // Find a non-root rule and make it reference itself.
        let victim = g
            .iter_rules()
            .map(|(id, _)| id)
            .find(|&id| id != g.root())
            .unwrap();
        if let Some(rule) = g.rules[victim.index()].as_mut() {
            rule.body[0] = SymbolUse::new(Symbol::Rule(victim), 1);
        }
        let diags = lint_grammar(&g, &LintOptions::default());
        assert!(diags.iter().any(|d| d.code == "rule-cycle"), "{diags:?}");
    }

    #[test]
    fn digram_duplicate_detected_and_located() {
        let mut g = built(&[0, 1, 2, 0, 1, 2, 0, 1, 2, 3]);
        // Append a copy of an existing digram to the root body: the pair now
        // appears twice across the grammar.
        let root = g.root();
        let dup = {
            let body = &g.rules[root.index()].as_ref().unwrap().body;
            [body[0], body[1]]
        };
        // Refcounts must stay consistent for the test to isolate the digram
        // check, so duplicate terminal uses only.
        if dup.iter().all(|u| u.symbol.terminal().is_some()) {
            let body = &mut g.rules[root.index()].as_mut().unwrap().body;
            body.extend_from_slice(&dup);
        } else {
            // Fall back: hand-build a grammar with a duplicated digram.
            g = Grammar::new();
            g.rules[0] = Some(Rule {
                body: vec![
                    SymbolUse::new(Symbol::Terminal(e(0)), 1),
                    SymbolUse::new(Symbol::Terminal(e(1)), 1),
                    SymbolUse::new(Symbol::Terminal(e(2)), 1),
                    SymbolUse::new(Symbol::Terminal(e(0)), 1),
                    SymbolUse::new(Symbol::Terminal(e(1)), 1),
                ],
                refcount: 0,
            });
        }
        let diags = lint_grammar(
            &g,
            &LintOptions {
                expected_events: None,
                annotate_positions: true,
            },
        );
        let dup = diags
            .iter()
            .find(|d| d.code == "digram-duplicate")
            .unwrap_or_else(|| panic!("no digram-duplicate in {diags:?}"));
        assert!(dup.rule.is_some() && dup.pos.is_some());
        assert!(dup.event_index.is_some(), "{dup:?}");
    }

    #[test]
    fn refcount_and_utility_detected() {
        let mut g = built(&[0, 1, 0, 1, 0, 1, 2]);
        let victim = g
            .iter_rules()
            .map(|(id, _)| id)
            .find(|&id| id != g.root())
            .unwrap();
        g.rules[victim.index()].as_mut().unwrap().refcount += 5;
        let diags = lint_grammar(&g, &LintOptions::default());
        assert!(
            diags.iter().any(|d| d.code == "refcount-mismatch"),
            "{diags:?}"
        );
    }

    #[test]
    fn length_mismatch_detected() {
        let g = built(&[0, 1, 0, 1, 0, 1]);
        let diags = lint_grammar(
            &g,
            &LintOptions {
                expected_events: Some(99),
                annotate_positions: false,
            },
        );
        assert!(
            diags.iter().any(|d| d.code == "trace-length-mismatch"),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_reference_detected_without_panic() {
        let mut g = built(&[0, 1, 0, 1, 0, 1, 2]);
        let root = g.root();
        let slots = g.rules_slots() as u32;
        g.rules[root.index()].as_mut().unwrap().body[0] =
            SymbolUse::new(Symbol::Rule(RuleId(slots + 7)), 1);
        let diags = lint_grammar(&g, &LintOptions::default());
        assert!(diags.iter().any(|d| d.code == "dead-rule-ref"), "{diags:?}");
    }

    #[test]
    fn event_index_annotation_is_plausible() {
        // 0 1 2 repeated; corrupt a rule body position and check the
        // approximate index lands inside the trace.
        let seq: Vec<u32> = (0..30).flat_map(|_| [0, 1, 2]).collect();
        let mut g = built(&seq);
        let victim = g
            .iter_rules()
            .map(|(id, _)| id)
            .find(|&id| id != g.root())
            .unwrap();
        g.rules[victim.index()].as_mut().unwrap().refcount += 1;
        let diags = lint_grammar(
            &g,
            &LintOptions {
                expected_events: None,
                annotate_positions: true,
            },
        );
        let d = diags
            .iter()
            .find(|d| d.code == "refcount-mismatch")
            .unwrap();
        let idx = d.event_index.expect("annotation missing");
        assert!(idx < seq.len() as u64, "index {idx} out of trace");
    }
}
