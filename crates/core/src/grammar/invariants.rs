//! Validation of the grammar invariants of paper §II-A.
//!
//! Two surfaces share one engine (the release-mode grammar linter,
//! [`crate::analyze::lint`]):
//!
//! * [`Grammar::check_invariants`] — public API validating a *loaded*,
//!   read-only grammar (e.g. one deserialized from a trace file): digram
//!   uniqueness, rule utility, run merging, exponent sanity, refcount
//!   recount, reachability, acyclicity. Every message references only
//!   grammar-visible state, so it is meaningful post-load.
//! * [`GrammarBuilder::check_invariants`] — the debug validator exercised
//!   after every event push by the unit and property tests. It layers the
//!   builder-only checks on top: the digram index must cover exactly the
//!   pairs present in rule bodies, the parent index must equal a recount
//!   of the rule uses in every body, and the grammar must expand to
//!   exactly the number of events pushed.

use crate::analyze::lint::{lint_grammar, LintOptions};
use crate::analyze::Severity;
use crate::grammar::builder::GrammarBuilder;
use crate::grammar::{Grammar, Loc, RuleId, Symbol};
use crate::util::FxHashMap;

impl Grammar {
    /// Validates all grammar invariants on this (possibly loaded) grammar,
    /// returning a description of the first violation found.
    ///
    /// This is the strict variant: warnings of the underlying linter (rule
    /// utility, aliases, unreachable rules) are violations too, because a
    /// grammar the reduction produced can never contain them. Use
    /// [`crate::analyze::lint_grammar`] directly for the full diagnostic
    /// list with severities and positions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let diags = lint_grammar(
            self,
            &LintOptions {
                expected_events: None,
                annotate_positions: false,
            },
        );
        match diags.into_iter().find(|d| d.severity >= Severity::Warning) {
            Some(d) => Err(d.message),
            None => Ok(()),
        }
    }
}

impl GrammarBuilder {
    /// Validates all grammar invariants plus the builder's bookkeeping,
    /// returning a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let g = self.grammar();
        g.check_invariants()?;

        // -- digram index covers exactly the existing pairs (builder-only
        //    state; the grammar-level linter cannot see the index) ---------
        let mut pairs: FxHashMap<(Symbol, Symbol), Loc> = FxHashMap::default();
        for (id, rule) in g.iter_rules() {
            for (pos, u) in rule.body.iter().enumerate() {
                if pos + 1 < rule.body.len() {
                    pairs.insert((u.symbol, rule.body[pos + 1].symbol), Loc { rule: id, pos });
                }
            }
        }
        for (key, loc) in &pairs {
            match self.digram_entry(*key) {
                None => {
                    return Err(format!(
                        "pair at {}[{}] missing from digram index",
                        loc.rule, loc.pos
                    ));
                }
                Some(entry) => {
                    if entry.rule != loc.rule {
                        return Err(format!(
                            "digram index points at rule {} but pair lives in {}",
                            entry.rule, loc.rule
                        ));
                    }
                }
            }
        }

        // -- parent index equals a recount from the rule bodies -----------
        let mut uses: FxHashMap<(RuleId, RuleId), u32> = FxHashMap::default();
        for (id, rule) in g.iter_rules() {
            for u in &rule.body {
                if let Symbol::Rule(child) = u.symbol {
                    *uses.entry((child, id)).or_default() += 1;
                }
            }
        }
        for (child, parent, n) in self.parent_entries() {
            let want = uses.remove(&(child, parent)).unwrap_or(0);
            if n != want {
                return Err(format!(
                    "parent index says {parent} uses {child} at {n} positions, body has {want}"
                ));
            }
        }
        if let Some(((child, parent), n)) = uses.into_iter().next() {
            return Err(format!(
                "parent index misses {n} uses of {child} in {parent}"
            ));
        }

        // -- losslessness of length (needs the builder's event counter) ----
        if g.trace_len() != self.event_count() {
            return Err(format!(
                "trace length {} != events pushed {}",
                g.trace_len(),
                self.event_count()
            ));
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::grammar::{Rule, SymbolUse};

    #[test]
    fn fresh_builder_is_valid() {
        let b = GrammarBuilder::new();
        b.check_invariants().unwrap();
    }

    #[test]
    fn validator_runs_after_pushes() {
        let mut b = GrammarBuilder::new();
        for ev in [0u32, 1, 2, 0, 1, 2, 0, 1, 2, 3, 3, 3] {
            b.push(EventId(ev));
            b.flush_accel();
            b.check_invariants().unwrap();
        }
    }

    #[test]
    fn loaded_grammar_validates_standalone() {
        let mut b = GrammarBuilder::new();
        for ev in [0u32, 1, 2, 0, 1, 2, 0, 1, 2] {
            b.push(EventId(ev));
        }
        let g = b.into_grammar().compact();
        g.check_invariants().unwrap();
    }

    #[test]
    fn corrupted_grammar_fails_standalone_check() {
        let mut b = GrammarBuilder::new();
        for ev in [0u32, 1, 0, 1, 0, 1, 2] {
            b.push(EventId(ev));
        }
        let mut g = b.into_grammar().compact();
        let victim = g
            .iter_rules()
            .map(|(id, _)| id)
            .find(|&id| id != g.root())
            .unwrap();
        g.rules[victim.index()].as_mut().unwrap().refcount += 1;
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("refcount"), "{err}");
    }

    #[test]
    fn message_references_no_builder_state() {
        // A hand-built grammar (no builder in sight) with a duplicated
        // digram still gets a precise message.
        let mut g = Grammar::new();
        let t = |n: u32| SymbolUse::new(Symbol::Terminal(EventId(n)), 1);
        g.rules[0] = Some(Rule {
            body: vec![t(0), t(1), t(2), t(0), t(1)],
            refcount: 0,
        });
        assert_eq!(g.root(), RuleId(0));
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("digram duplicated"), "{err}");
    }
}
