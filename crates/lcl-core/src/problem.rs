//! LCL problems Π = (δ, Σ, C) on rooted regular trees (Definition 4.1).
//!
//! A problem owns an interned *core*: configurations are stored sorted in a
//! dense `Vec`, grouped by parent label through a per-label index range built
//! once at construction time, and every configuration carries a precomputed
//! [`LabelSet`] of the labels it uses. Together with the bitset representation
//! of Σ this makes the classifier's hot queries — "does `label` have a
//! continuation below within `allowed`?", "which configurations survive a
//! restriction?" — run in O(1) per configuration with no allocation.

use std::fmt;
use std::sync::Arc;

use crate::configuration::Configuration;
use crate::label::{Alphabet, AlphabetBuilder, Label};
use crate::label_set::LabelSet;

/// An LCL problem in the rooted-regular-tree formalism of the paper: the number of
/// children `δ`, a finite set of labels `Σ`, and a set of allowed configurations `C`.
///
/// Problems are immutable after construction. The *active* label set Σ may be a
/// subset of the shared [`Alphabet`]: restrictions (Definition 4.3) keep the same
/// alphabet so label identities and names are stable across the whole analysis.
/// At most [`LabelSet::CAPACITY`] (128) alphabet entries are supported.
#[derive(Debug, Clone)]
pub struct LclProblem {
    delta: usize,
    alphabet: Arc<Alphabet>,
    labels: LabelSet,
    /// Sorted and deduplicated; configurations with equal parents are contiguous.
    configurations: Vec<Configuration>,
    /// For each alphabet label index, the range of `configurations` whose parent
    /// is that label.
    parent_ranges: Vec<(u32, u32)>,
    /// For each configuration, the set of labels it uses (parent and children).
    config_sets: Vec<LabelSet>,
    /// Union of all configuration label sets.
    used_labels: LabelSet,
}

impl PartialEq for LclProblem {
    fn eq(&self, other: &Self) -> bool {
        // The index structures are functions of the three defining fields.
        self.delta == other.delta
            && self.labels == other.labels
            && self.configurations == other.configurations
            && (Arc::ptr_eq(&self.alphabet, &other.alphabet) || self.alphabet == other.alphabet)
    }
}

impl Eq for LclProblem {}

impl LclProblem {
    /// Creates a problem from its parts. `configurations` may be in any order and
    /// contain duplicates; they are canonicalized here.
    ///
    /// # Panics
    ///
    /// Panics if a configuration uses a label outside `labels`, has the wrong number
    /// of children, if a label index is outside the alphabet, or if the alphabet has
    /// more than 128 entries.
    pub fn new(
        delta: usize,
        alphabet: Arc<Alphabet>,
        labels: LabelSet,
        configurations: Vec<Configuration>,
    ) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        assert!(
            alphabet.len() <= LabelSet::CAPACITY,
            "alphabet has {} labels, LabelSet supports at most {}",
            alphabet.len(),
            LabelSet::CAPACITY
        );
        for l in labels.iter() {
            assert!(l.index() < alphabet.len(), "label {l} outside the alphabet");
        }
        let mut configurations = configurations;
        configurations.sort_unstable();
        configurations.dedup();
        for c in &configurations {
            assert_eq!(
                c.delta(),
                delta,
                "configuration {} has {} children, expected {delta}",
                c.display(&alphabet),
                c.delta()
            );
            for l in c.labels() {
                assert!(
                    labels.contains(l),
                    "configuration {} uses label {} not in the active label set",
                    c.display(&alphabet),
                    alphabet.name(l)
                );
            }
        }
        Self::from_canonical(delta, alphabet, labels, configurations)
    }

    /// Builds the dense index for already-sorted, validated configurations.
    fn from_canonical(
        delta: usize,
        alphabet: Arc<Alphabet>,
        labels: LabelSet,
        configurations: Vec<Configuration>,
    ) -> Self {
        debug_assert!(configurations.windows(2).all(|w| w[0] < w[1]));
        let mut parent_ranges = vec![(0u32, 0u32); alphabet.len()];
        let mut config_sets = Vec::with_capacity(configurations.len());
        let mut used_labels = LabelSet::EMPTY;
        let mut i = 0usize;
        while i < configurations.len() {
            let parent = configurations[i].parent();
            let start = i;
            while i < configurations.len() && configurations[i].parent() == parent {
                let set: LabelSet = configurations[i].labels().collect();
                used_labels |= set;
                config_sets.push(set);
                i += 1;
            }
            parent_ranges[parent.index()] = (start as u32, i as u32);
        }
        LclProblem {
            delta,
            alphabet,
            labels,
            configurations,
            parent_ranges,
            config_sets,
            used_labels,
        }
    }

    /// Starts a [`ProblemBuilder`] for a problem with the given δ.
    pub fn builder(delta: usize) -> ProblemBuilder {
        ProblemBuilder::new(delta)
    }

    /// The number of children of internal nodes.
    #[inline]
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The shared alphabet mapping labels to names.
    #[inline]
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// The active label set Σ(Π).
    #[inline]
    pub fn labels(&self) -> LabelSet {
        self.labels
    }

    /// The allowed configurations C(Π), sorted with equal parents contiguous.
    #[inline]
    pub fn configurations(&self) -> &[Configuration] {
        &self.configurations
    }

    /// The precomputed label set of the configuration at `index` (parallel to
    /// [`Self::configurations`]).
    #[inline]
    pub fn configuration_label_set(&self, index: usize) -> LabelSet {
        self.config_sets[index]
    }

    /// The labels that appear in at least one configuration.
    #[inline]
    pub fn used_labels(&self) -> LabelSet {
        self.used_labels
    }

    /// Number of active labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Number of allowed configurations.
    pub fn num_configurations(&self) -> usize {
        self.configurations.len()
    }

    /// A problem is *empty* when it has no allowed configurations or no labels;
    /// the pruning loop of Algorithm 2 bottoms out on empty problems.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty() || self.configurations.is_empty()
    }

    /// Returns the name of a label, panicking if it is not in the alphabet.
    pub fn label_name(&self, label: Label) -> &str {
        self.alphabet.name(label)
    }

    /// Looks up an active label by name.
    pub fn label_by_name(&self, name: &str) -> Option<Label> {
        self.alphabet
            .label(name)
            .filter(|&l| self.labels.contains(l))
    }

    #[inline]
    fn parent_range(&self, label: Label) -> std::ops::Range<usize> {
        match self.parent_ranges.get(label.index()) {
            Some(&(a, b)) => a as usize..b as usize,
            None => 0..0,
        }
    }

    /// The configurations whose parent is `label`.
    pub fn configurations_with_parent(
        &self,
        label: Label,
    ) -> impl Iterator<Item = &Configuration> + '_ {
        self.configurations[self.parent_range(label)].iter()
    }

    /// Definition 4.4: `label` has a *continuation below* if some configuration has
    /// it as the parent.
    pub fn has_continuation_below(&self, label: Label) -> bool {
        !self.parent_range(label).is_empty()
    }

    /// Definition 4.5: `label` has a continuation below *with labels in `allowed`*
    /// if some configuration `(label : σ₁ … σ_δ)` uses only labels from `allowed`
    /// (including `label` itself). A single subset test per configuration.
    #[inline]
    pub fn has_continuation_within(&self, label: Label, allowed: LabelSet) -> bool {
        if !allowed.contains(label) {
            return false;
        }
        self.parent_range(label)
            .any(|i| self.config_sets[i].is_subset(allowed))
    }

    /// Returns a configuration witnessing [`Self::has_continuation_within`], if any.
    pub fn continuation_within(&self, label: Label, allowed: LabelSet) -> Option<&Configuration> {
        if !allowed.contains(label) {
            return None;
        }
        self.parent_range(label)
            .find(|&i| self.config_sets[i].is_subset(allowed))
            .map(|i| &self.configurations[i])
    }

    /// Definition 4.3: the restriction of the problem to the labels in `subset`.
    /// Only configurations entirely within `subset` survive.
    pub fn restrict_to(&self, subset: LabelSet) -> LclProblem {
        let labels = self.labels & subset;
        // Filtering a sorted sequence keeps it sorted, so the canonical
        // constructor can skip re-sorting and re-validating.
        let configurations: Vec<Configuration> = self
            .configurations
            .iter()
            .zip(self.config_sets.iter())
            .filter(|(_, set)| set.is_subset(labels))
            .map(|(c, _)| c.clone())
            .collect();
        LclProblem::from_canonical(
            self.delta,
            Arc::clone(&self.alphabet),
            labels,
            configurations,
        )
    }

    /// Definition 4.6: the path-form of the problem, i.e. the δ = 1 problem whose
    /// configurations are all pairs `(a : b)` such that some configuration of the
    /// original problem has parent `a` and `b` among its children.
    pub fn path_form(&self) -> LclProblem {
        let mut pairs = std::collections::BTreeSet::new();
        for c in &self.configurations {
            for &child in c.children() {
                pairs.insert(Configuration::new(c.parent(), vec![child]));
            }
        }
        LclProblem::from_canonical(
            1,
            Arc::clone(&self.alphabet),
            self.labels,
            pairs.into_iter().collect(),
        )
    }

    /// Returns `true` if the configuration is allowed by the problem.
    pub fn allows(&self, configuration: &Configuration) -> bool {
        self.configurations[self.parent_range(configuration.parent())]
            .binary_search(configuration)
            .is_ok()
    }

    /// Returns `true` if a node labeled `parent` may have children carrying exactly
    /// the multiset `children` (order irrelevant).
    pub fn allows_parts(&self, parent: Label, children: &[Label]) -> bool {
        self.allows(&Configuration::new(parent, children.to_vec()))
    }

    /// Allocation-free twin of [`Self::allows_parts`]: checks the unordered
    /// multiset `children` against the configurations with this `parent` without
    /// building a [`Configuration`]. Used by verification hot paths (certificate
    /// trees check one node per call).
    pub fn allows_multiset(&self, parent: Label, children: &[Label]) -> bool {
        self.configurations[self.parent_range(parent)]
            .iter()
            .any(|c| crate::configuration::multiset_eq_sorted(c.children(), children))
    }

    /// The index range of [`Self::configurations`] whose parent is `label`.
    /// Together with [`Self::configuration_label_set`] this supports *masked*
    /// iteration over a restriction's configurations without materializing the
    /// restricted problem (see the `scratch` module).
    #[inline]
    pub fn parent_config_range(&self, label: Label) -> std::ops::Range<usize> {
        self.parent_range(label)
    }

    /// Checks that another problem is a *restriction* of this one: same δ, same
    /// alphabet, labels and configurations are subsets.
    pub fn is_restriction_of(&self, other: &LclProblem) -> bool {
        self.delta == other.delta
            && Arc::ptr_eq(&self.alphabet, &other.alphabet)
            && self.labels.is_subset(other.labels)
            && self.configurations.iter().all(|c| other.allows(c))
    }

    /// Canonical multi-line text form (one configuration per line), parseable back
    /// by [`crate::parser`]. Labels that appear in no configuration are listed on a
    /// trailing `labels:` line so the round trip preserves Σ exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for c in &self.configurations {
            out.push_str(&c.display(&self.alphabet));
            out.push('\n');
        }
        let unused: Vec<&str> = (self.labels - self.used_labels)
            .iter()
            .map(|l| self.alphabet.name(l))
            .collect();
        if !unused.is_empty() {
            out.push_str(&format!("labels: {}\n", unused.join(" ")));
        }
        out
    }
}

impl fmt::Display for LclProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Π(δ={}, |Σ|={}, |C|={})",
            self.delta,
            self.labels.len(),
            self.configurations.len()
        )
    }
}

impl std::str::FromStr for LclProblem {
    type Err = crate::parser::ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::parser::parse_problem(s)
    }
}

/// Incremental construction of an [`LclProblem`] with automatic label interning.
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    delta: usize,
    alphabet: AlphabetBuilder,
    labels: LabelSet,
    configurations: Vec<(Label, Vec<Label>)>,
}

impl ProblemBuilder {
    /// Creates a builder for problems with the given δ.
    pub fn new(delta: usize) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        ProblemBuilder {
            delta,
            alphabet: AlphabetBuilder::new(),
            labels: LabelSet::EMPTY,
            configurations: Vec::new(),
        }
    }

    /// Declares a label (with no configuration); returns its index.
    pub fn label(&mut self, name: &str) -> Label {
        let l = self.alphabet.intern(name);
        self.labels.insert(l);
        l
    }

    /// Adds an allowed configuration given by label names.
    ///
    /// # Panics
    ///
    /// Panics if the number of children differs from δ.
    pub fn configuration(&mut self, parent: &str, children: &[&str]) -> &mut Self {
        assert_eq!(
            children.len(),
            self.delta,
            "configuration {parent} : {children:?} must have exactly {} children",
            self.delta
        );
        let p = self.label(parent);
        let cs: Vec<Label> = children.iter().map(|c| self.label(c)).collect();
        self.configurations.push((p, cs));
        self
    }

    /// Adds several configurations at once; each entry is `(parent, children)`.
    pub fn configurations(&mut self, entries: &[(&str, &[&str])]) -> &mut Self {
        for (p, cs) in entries {
            self.configuration(p, cs);
        }
        self
    }

    /// Finishes the builder into an immutable problem.
    pub fn build(self) -> LclProblem {
        let alphabet = self.alphabet.finish();
        let configurations = self
            .configurations
            .into_iter()
            .map(|(p, cs)| Configuration::new(p, cs))
            .collect();
        LclProblem::new(self.delta, alphabet, self.labels, configurations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 3-coloring problem of Section 1.2.
    pub(crate) fn three_coloring() -> LclProblem {
        let mut b = LclProblem::builder(2);
        b.configurations(&[
            ("1", &["2", "2"]),
            ("1", &["2", "3"]),
            ("1", &["3", "3"]),
            ("2", &["1", "1"]),
            ("2", &["1", "3"]),
            ("2", &["3", "3"]),
            ("3", &["1", "1"]),
            ("3", &["1", "2"]),
            ("3", &["2", "2"]),
        ]);
        b.build()
    }

    /// The MIS problem of Section 1.3.
    pub(crate) fn mis() -> LclProblem {
        let mut b = LclProblem::builder(2);
        b.configurations(&[
            ("1", &["a", "a"]),
            ("1", &["a", "b"]),
            ("1", &["b", "b"]),
            ("a", &["b", "b"]),
            ("b", &["b", "1"]),
            ("b", &["1", "1"]),
        ]);
        b.build()
    }

    #[test]
    fn builder_produces_expected_counts() {
        let p = three_coloring();
        assert_eq!(p.delta(), 2);
        assert_eq!(p.num_labels(), 3);
        assert_eq!(p.num_configurations(), 9);
        assert!(!p.is_empty());
    }

    #[test]
    fn continuation_below() {
        let p = mis();
        let one = p.label_by_name("1").unwrap();
        let a = p.label_by_name("a").unwrap();
        let b = p.label_by_name("b").unwrap();
        assert!(p.has_continuation_below(one));
        assert!(p.has_continuation_below(a));
        assert!(p.has_continuation_below(b));
        // Within {1, b} the label a has no continuation; 1 and b do.
        let sub: LabelSet = [one, b].into_iter().collect();
        assert!(p.has_continuation_within(one, sub));
        assert!(p.has_continuation_within(b, sub));
        assert!(!p.has_continuation_within(a, sub));
    }

    #[test]
    fn restriction_drops_configurations() {
        let p = three_coloring();
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        let sub: LabelSet = [one, two].into_iter().collect();
        let r = p.restrict_to(sub);
        assert_eq!(r.num_labels(), 2);
        // Only 1:22 and 2:11 survive.
        assert_eq!(r.num_configurations(), 2);
        assert!(r.is_restriction_of(&p));
        assert!(!p.is_restriction_of(&r));
    }

    #[test]
    fn path_form_of_three_coloring() {
        let p = three_coloring();
        let pf = p.path_form();
        assert_eq!(pf.delta(), 1);
        // All ordered pairs of distinct colors: 6 of them.
        assert_eq!(pf.num_configurations(), 6);
    }

    #[test]
    fn path_form_of_mis_matches_paper() {
        // Path form of (3): 1:a, 1:b, a:b, b:b, b:1.
        let p = mis();
        let pf = p.path_form();
        assert_eq!(pf.num_configurations(), 5);
        let one = p.label_by_name("1").unwrap();
        let a = p.label_by_name("a").unwrap();
        let b = p.label_by_name("b").unwrap();
        assert!(pf.allows_parts(one, &[a]));
        assert!(pf.allows_parts(one, &[b]));
        assert!(pf.allows_parts(a, &[b]));
        assert!(pf.allows_parts(b, &[b]));
        assert!(pf.allows_parts(b, &[one]));
        assert!(!pf.allows_parts(a, &[one]));
    }

    #[test]
    fn allows_is_order_insensitive() {
        let p = mis();
        let one = p.label_by_name("1").unwrap();
        let a = p.label_by_name("a").unwrap();
        let b = p.label_by_name("b").unwrap();
        assert!(p.allows_parts(one, &[b, a]));
        assert!(p.allows_parts(one, &[a, b]));
        assert!(!p.allows_parts(a, &[b, one]));
    }

    #[test]
    fn allows_multiset_agrees_with_allows_parts() {
        let p = mis();
        let labels: Vec<Label> = p.labels().iter().collect();
        for &parent in &labels {
            for &c1 in &labels {
                for &c2 in &labels {
                    assert_eq!(
                        p.allows_multiset(parent, &[c1, c2]),
                        p.allows_parts(parent, &[c1, c2]),
                        "parent {parent}, children ({c1}, {c2})"
                    );
                }
            }
        }
        // Wrong arity is simply not allowed.
        let one = p.label_by_name("1").unwrap();
        assert!(!p.allows_multiset(one, &[one]));
    }

    #[test]
    fn to_text_roundtrip() {
        let p = mis();
        let text = p.to_text();
        let reparsed: LclProblem = text.parse().unwrap();
        assert_eq!(reparsed.delta(), p.delta());
        assert_eq!(reparsed.num_labels(), p.num_labels());
        assert_eq!(reparsed.num_configurations(), p.num_configurations());
    }

    #[test]
    fn declared_but_unused_labels_are_kept() {
        let mut b = LclProblem::builder(2);
        b.configuration("x", &["x", "x"]);
        b.label("orphan");
        let p = b.build();
        assert_eq!(p.num_labels(), 2);
        let text = p.to_text();
        assert!(text.contains("labels: orphan"));
        let reparsed: LclProblem = text.parse().unwrap();
        assert_eq!(reparsed.num_labels(), 2);
    }

    #[test]
    fn labels_iterate_in_btree_order() {
        let p = three_coloring();
        let btree = p.labels().to_btree();
        let via_iter: Vec<Label> = p.labels().iter().collect();
        assert_eq!(btree.into_iter().collect::<Vec<_>>(), via_iter);
    }

    #[test]
    #[should_panic(expected = "must have exactly 2 children")]
    fn builder_rejects_wrong_arity() {
        let mut b = LclProblem::builder(2);
        b.configuration("x", &["x"]);
    }
}
