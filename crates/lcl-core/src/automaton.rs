//! The automaton associated with the path-form of an LCL problem (Definition 4.7)
//! and the flexibility analysis of Definitions 4.8–4.9 and 4.12.
//!
//! The automaton `M(Π)` is a directed graph whose states are the labels of Π and
//! which has an edge `a → b` whenever `(a : b)` appears in the path-form of Π.
//! A state is *flexible* when it admits closed walks of every sufficiently large
//! length; equivalently, its strongly connected component contains a cycle and has
//! period (gcd of its cycle lengths) 1. The pruning procedure of Algorithm 1 removes
//! all inflexible states, and Algorithm 2's certificate is a restriction to a
//! *minimal absorbing subgraph* — a strongly connected component without outgoing
//! edges (Definition 4.12).
//!
//! State sets are [`LabelSet`] bitsets throughout, so the reachability iterations
//! (`reach`, `primitive_flexibility`, `find_walk`) advance whole frontiers with a
//! handful of word operations per step. `reach` and `primitive_flexibility` are
//! shared with the masked kernels of [`crate::scratch`]; the `reference` module
//! (feature `reference`) keeps Kosaraju's decomposition and the full
//! closed-walk DP as their independent test oracle.

use crate::label::Label;
use crate::label_set::LabelSet;
use crate::problem::LclProblem;

/// The path-form automaton `M(Π)` of a problem (Definition 4.7).
#[derive(Debug, Clone)]
pub struct Automaton {
    /// The state labels in ascending order.
    states: Vec<Label>,
    /// The states as a set; `state_set.rank(l)` is `l`'s index into `states`.
    state_set: LabelSet,
    /// Successors of each state, indexed parallel to `states`.
    successors: Vec<LabelSet>,
    /// Predecessors of each state, same indexing.
    predecessors: Vec<LabelSet>,
}

/// A strongly connected component of the automaton, with its period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Component {
    /// States of the component.
    pub states: LabelSet,
    /// `true` if the component contains at least one edge (i.e. a cycle); single
    /// states without a self-loop are *trivial* components.
    pub has_cycle: bool,
    /// The gcd of the lengths of all cycles inside the component; 0 for trivial
    /// components.
    pub period: usize,
    /// `true` if no edge leaves the component (Definition 4.12's absorbing
    /// condition).
    pub is_sink: bool,
}

impl Automaton {
    /// Builds the automaton associated with the path-form of `problem`.
    pub fn of(problem: &LclProblem) -> Self {
        let state_set = problem.labels();
        let states: Vec<Label> = state_set.iter().collect();
        let mut successors = vec![LabelSet::EMPTY; states.len()];
        let mut predecessors = vec![LabelSet::EMPTY; states.len()];
        for c in problem.configurations() {
            let from = state_set.rank(c.parent());
            for &child in c.children() {
                successors[from].insert(child);
                predecessors[state_set.rank(child)].insert(c.parent());
            }
        }
        Automaton {
            states,
            state_set,
            successors,
            predecessors,
        }
    }

    /// The states (labels) of the automaton.
    pub fn states(&self) -> &[Label] {
        &self.states
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The successors of a state (empty if the state has no outgoing transitions or
    /// is not part of the automaton).
    #[inline]
    pub fn successors(&self, state: Label) -> LabelSet {
        if self.state_set.contains(state) {
            self.successors[self.state_set.rank(state)]
        } else {
            LabelSet::EMPTY
        }
    }

    /// Returns `true` if there is a transition `from → to`.
    pub fn has_edge(&self, from: Label, to: Label) -> bool {
        self.successors(from).contains(to)
    }

    /// Total number of transitions.
    pub fn num_edges(&self) -> usize {
        self.successors.iter().map(|s| s.len()).sum()
    }

    /// Decomposes the automaton into strongly connected components, returning
    /// one [`Component`] per SCC in order of their least labels. Each SCC is
    /// the intersection of the forward and backward closures of its least
    /// label, the same bitset construction as the masked kernels of
    /// [`crate::scratch`].
    pub fn components(&self) -> Vec<Component> {
        let mut assigned = LabelSet::EMPTY;
        let mut components = Vec::new();
        for &v in &self.states {
            if assigned.contains(v) {
                continue;
            }
            let states = reach(v, &self.successors, self.state_set)
                & reach(v, &self.predecessors, self.state_set);
            assigned |= states;
            let has_cycle = self.component_has_cycle(states);
            components.push(Component {
                states,
                has_cycle,
                period: if has_cycle {
                    self.component_period(states)
                } else {
                    0
                },
                is_sink: states.iter().all(|s| self.successors(s).is_subset(states)),
            });
        }
        components
    }

    fn component_has_cycle(&self, states: LabelSet) -> bool {
        if states.len() > 1 {
            return true;
        }
        let only = states.first().expect("non-empty component");
        self.has_edge(only, only)
    }

    /// Computes the period (gcd of cycle lengths) of a strongly connected component
    /// that contains at least one cycle, via BFS layering: the period is the gcd of
    /// `level(u) + 1 − level(v)` over all internal edges `u → v`.
    fn component_period(&self, states: LabelSet) -> usize {
        let start = states.first().expect("non-empty component");
        let mut level: Vec<Option<i64>> = vec![None; states.len()];
        level[states.rank(start)] = Some(0);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut gcd: i64 = 0;
        while let Some(u) = queue.pop_front() {
            let lu = level[states.rank(u)].expect("queued states have levels");
            for v in self.successors(u) & states {
                match level[states.rank(v)] {
                    None => {
                        level[states.rank(v)] = Some(lu + 1);
                        queue.push_back(v);
                    }
                    Some(lv) => {
                        gcd = gcd_i64(gcd, (lu + 1 - lv).abs());
                    }
                }
            }
        }
        gcd.max(0) as usize
    }

    /// Definition 4.8/4.9: the set of flexible (path-flexible) states — states whose
    /// SCC contains a cycle of period 1.
    pub fn flexible_states(&self) -> LabelSet {
        let mut out = LabelSet::EMPTY;
        for comp in self.components() {
            if comp.has_cycle && comp.period == 1 {
                out |= comp.states;
            }
        }
        out
    }

    /// Definition 4.8: the flexibility of a state — the smallest `K` such that for
    /// every `k ≥ K` there is a closed walk of length exactly `k` from the state to
    /// itself. Returns `None` for inflexible states.
    pub fn flexibility(&self, state: Label) -> Option<usize> {
        let comp = self
            .components()
            .into_iter()
            .find(|c| c.states.contains(state))?;
        if !comp.has_cycle || comp.period != 1 {
            return None;
        }
        Some(primitive_flexibility(state, comp.states, |u| {
            self.successors(u)
        }))
    }

    /// Returns `true` if a walk of length exactly `len` from `from` to `to` exists.
    pub fn walk_exists(&self, from: Label, to: Label, len: usize) -> bool {
        self.find_walk(from, to, len).is_some()
    }

    /// Finds a walk of length exactly `len` from `from` to `to`, returned as the
    /// sequence of `len + 1` visited states, or `None` if no such walk exists.
    pub fn find_walk(&self, from: Label, to: Label, len: usize) -> Option<Vec<Label>> {
        let mut reach = Vec::new();
        let mut walk = Vec::new();
        if self.find_walk_into(from, to, len, &mut reach, &mut walk) {
            Some(walk)
        } else {
            None
        }
    }

    /// [`Self::find_walk`] with caller-provided buffers: `walk` receives the
    /// `len + 1` visited states on success (it is cleared either way), `reach`
    /// is reused scratch. Once both buffers have grown to the caller's largest
    /// `len`, repeated calls perform no allocation — the shape the flat
    /// rake-and-compress solver needs when completing thousands of compress
    /// runs per tree.
    pub fn find_walk_into(
        &self,
        from: Label,
        to: Label,
        len: usize,
        reach: &mut Vec<LabelSet>,
        walk: &mut Vec<Label>,
    ) -> bool {
        // reach[l] = states from which `to` is reachable in exactly l steps.
        reach.clear();
        walk.clear();
        let mut current = LabelSet::singleton(to);
        reach.push(current);
        for _ in 0..len {
            let mut prev = LabelSet::EMPTY;
            for &s in &self.states {
                if !self.successors(s).is_disjoint(current) {
                    prev.insert(s);
                }
            }
            reach.push(prev);
            current = prev;
        }
        if !reach[len].contains(from) {
            return false;
        }
        let mut state = from;
        walk.push(state);
        for step in 0..len {
            let remaining = len - step - 1;
            let next = (self.successors(state) & reach[remaining])
                .first()
                .expect("walk reconstruction follows reachability sets");
            walk.push(next);
            state = next;
        }
        true
    }

    /// Returns `true` if the automaton restricted to its states is strongly
    /// connected (and non-empty).
    pub fn is_strongly_connected(&self) -> bool {
        let comps = self.components();
        comps.len() == 1 && !self.states.is_empty()
    }

    /// Definition 4.12: the states of a *minimal absorbing subgraph* — a strongly
    /// connected component without outgoing edges. Among sink components, ones that
    /// contain a cycle are preferred (Lemma 5.5 needs at least one edge); ties are
    /// broken towards the component containing the smallest label, making the choice
    /// deterministic.
    pub fn minimal_absorbing_component(&self) -> Option<LabelSet> {
        let comps = self.components();
        let mut sinks: Vec<&Component> = comps.iter().filter(|c| c.is_sink).collect();
        sinks.sort_by_key(|c| (!c.has_cycle, c.states.first().expect("non-empty")));
        sinks.first().map(|c| c.states)
    }
}

/// Reflexive-transitive closure of `start` under `adj` (dense over `allowed`),
/// staying inside `allowed`. Pure bitset frontier expansion, no allocation.
pub(crate) fn reach(start: Label, adj: &[LabelSet], allowed: LabelSet) -> LabelSet {
    let mut seen = LabelSet::singleton(start);
    let mut frontier = seen;
    while !frontier.is_empty() {
        let mut next = LabelSet::EMPTY;
        for u in frontier {
            next |= adj[allowed.rank(u)];
        }
        next &= allowed;
        frontier = next - seen;
        seen |= frontier;
    }
    seen
}

/// The flexibility of `state` in the primitive (period-1, cycle-containing)
/// component `comp` of an automaton with successor sets `successors`.
///
/// Closed walks through a state stay inside its component, and the Wielandt
/// bound `(s − 1)² + 1` on the primitivity index of a component of size `s`
/// means closed walks of every length from that bound on exist, so the
/// flexibility is one more than the longest missing closed-walk length below
/// it. The walk stops early once it covers the whole component, which every
/// longer walk covers too.
pub(crate) fn primitive_flexibility(
    state: Label,
    comp: LabelSet,
    successors: impl Fn(Label) -> LabelSet,
) -> usize {
    let wielandt = (comp.len().saturating_sub(1)).pow(2) + 1;
    let mut reachable = LabelSet::singleton(state);
    let mut last_gap = 0;
    for len in 1..wielandt {
        let mut next = LabelSet::EMPTY;
        for u in reachable {
            next |= successors(u);
        }
        reachable = next & comp;
        if reachable == comp {
            break;
        }
        if !reachable.contains(state) {
            last_gap = len;
        }
    }
    last_gap + 1
}

fn gcd_i64(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd_i64(b, a % b)
    }
}

/// Kosaraju's SCC decomposition and the closed-walk flexibility DP, kept as
/// test oracles for [`Automaton::components`], [`Automaton::flexibility`] and
/// the masked kernels of [`crate::scratch`], which all build components from
/// bitset closures and stop the flexibility walk early.
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub mod reference {
    use super::{Automaton, Component};
    use crate::label::Label;
    use crate::label_set::LabelSet;

    /// The strongly connected components of `automaton` by Kosaraju's two
    /// passes, in the order the second pass finds them.
    pub fn components(automaton: &Automaton) -> Vec<Component> {
        let n = automaton.states.len();
        let forward: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                automaton.successors[i]
                    .iter()
                    .map(|l| automaton.state_set.rank(l))
                    .collect()
            })
            .collect();
        let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, succs) in forward.iter().enumerate() {
            for &v in succs {
                reverse[v].push(u);
            }
        }
        // Pass 1: finishing order on the forward graph (iterative DFS).
        let mut visited = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            visited[start] = true;
            while let Some((v, child_pos)) = stack.pop() {
                if child_pos < forward[v].len() {
                    stack.push((v, child_pos + 1));
                    let w = forward[v][child_pos];
                    if !visited[w] {
                        visited[w] = true;
                        stack.push((w, 0));
                    }
                } else {
                    order.push(v);
                }
            }
        }
        // Pass 2: DFS on the reverse graph in reverse finishing order.
        let mut comp_id = vec![usize::MAX; n];
        let mut num_components = 0usize;
        for &start in order.iter().rev() {
            if comp_id[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp_id[start] = num_components;
            while let Some(v) = stack.pop() {
                for &w in &reverse[v] {
                    if comp_id[w] == usize::MAX {
                        comp_id[w] = num_components;
                        stack.push(w);
                    }
                }
            }
            num_components += 1;
        }

        let mut members: Vec<LabelSet> = vec![LabelSet::EMPTY; num_components];
        for (i, &label) in automaton.states.iter().enumerate() {
            members[comp_id[i]].insert(label);
        }
        members
            .into_iter()
            .map(|states| {
                let has_cycle = automaton.component_has_cycle(states);
                Component {
                    states,
                    has_cycle,
                    period: if has_cycle {
                        automaton.component_period(states)
                    } else {
                        0
                    },
                    is_sink: states
                        .iter()
                        .all(|s| automaton.successors(s).is_subset(states)),
                }
            })
            .collect()
    }

    /// The union of the flexible (period-1, cycle-containing) components.
    pub fn flexible_states(automaton: &Automaton) -> LabelSet {
        components(automaton)
            .into_iter()
            .filter(|c| c.has_cycle && c.period == 1)
            .fold(LabelSet::EMPTY, |flexible, c| flexible | c.states)
    }

    /// Definition 4.12's choice rule over [`components`]: among sink
    /// components, the cycle-containing ones first, then the least label.
    pub fn minimal_absorbing_component(automaton: &Automaton) -> Option<LabelSet> {
        components(automaton)
            .into_iter()
            .filter(|c| c.is_sink)
            .min_by_key(|c| (!c.has_cycle, c.states.first()))
            .map(|c| c.states)
    }

    /// Definition 4.8 by a DP over every closed-walk length up to the
    /// Wielandt bound `(s − 1)² + 1` of the state's component (of size `s`),
    /// with no early stop.
    pub fn flexibility(automaton: &Automaton, state: Label) -> Option<usize> {
        let comp = components(automaton)
            .into_iter()
            .find(|c| c.states.contains(state))?;
        if !comp.has_cycle || comp.period != 1 {
            return None;
        }
        let wielandt = (comp.states.len().saturating_sub(1)).pow(2) + 1;
        // achievable[l - 1]: a closed walk of length l exists inside the component.
        let mut reachable = LabelSet::singleton(state);
        let mut achievable = vec![false; wielandt];
        for entry in achievable.iter_mut() {
            let mut next = LabelSet::EMPTY;
            for u in reachable {
                next |= automaton.successors(u);
            }
            next &= comp.states;
            *entry = next.contains(state);
            reachable = next;
        }
        // Every length from the bound on is achievable; lower K while the
        // length just below it still is.
        let mut k = wielandt;
        while k >= 2 && achievable[k - 2] {
            k -= 1;
        }
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LclProblem;

    fn problem(text: &str) -> LclProblem {
        text.parse().unwrap()
    }

    /// Figure 2a: Π₀ = branch 2-coloring {1,2} combined with proper 2-coloring {a,b}.
    fn pi0() -> LclProblem {
        problem("a : b b\nb : a a\n1 : 1 2\n2 : 1 1\n")
    }

    #[test]
    fn automaton_of_pi0_matches_figure_2c() {
        let p = pi0();
        let m = Automaton::of(&p);
        let l = |n: &str| p.label_by_name(n).unwrap();
        assert_eq!(m.num_states(), 4);
        // Edges: a→b, b→a, 1→1, 1→2, 2→1.
        assert!(m.has_edge(l("a"), l("b")));
        assert!(m.has_edge(l("b"), l("a")));
        assert!(m.has_edge(l("1"), l("1")));
        assert!(m.has_edge(l("1"), l("2")));
        assert!(m.has_edge(l("2"), l("1")));
        assert!(!m.has_edge(l("a"), l("1")));
        assert_eq!(m.num_edges(), 5);
    }

    #[test]
    fn components_and_periods_of_pi0() {
        let p = pi0();
        let m = Automaton::of(&p);
        let l = |n: &str| p.label_by_name(n).unwrap();
        let comps = m.components();
        assert_eq!(comps.len(), 2);
        let ab = comps.iter().find(|c| c.states.contains(l("a"))).unwrap();
        let digits = comps.iter().find(|c| c.states.contains(l("1"))).unwrap();
        // {a, b} is 2-periodic (only even closed walks), {1, 2} is 1-periodic.
        assert_eq!(ab.period, 2);
        assert!(ab.has_cycle);
        assert_eq!(digits.period, 1);
        assert!(digits.has_cycle);
    }

    #[test]
    fn flexible_states_of_pi0_are_the_digits() {
        // Figure 2c: states a and b are inflexible (grayed out), 1 and 2 flexible.
        let p = pi0();
        let m = Automaton::of(&p);
        let l = |n: &str| p.label_by_name(n).unwrap();
        let flexible = m.flexible_states();
        assert!(flexible.contains(l("1")));
        assert!(flexible.contains(l("2")));
        assert!(!flexible.contains(l("a")));
        assert!(!flexible.contains(l("b")));
    }

    #[test]
    fn flexibility_values() {
        let p = pi0();
        let m = Automaton::of(&p);
        let l = |n: &str| p.label_by_name(n).unwrap();
        // 1 has a self-loop: closed walks of every length >= 1.
        assert_eq!(m.flexibility(l("1")), Some(1));
        // 2 has closed walks of lengths 2, 3, 4, ... (via 2→1→2, 2→1→1→2, …).
        assert_eq!(m.flexibility(l("2")), Some(2));
        assert_eq!(m.flexibility(l("a")), None);
        assert_eq!(m.flexibility(l("b")), None);
    }

    #[test]
    fn three_coloring_everything_flexible() {
        let p = problem("1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n");
        let m = Automaton::of(&p);
        assert_eq!(m.flexible_states().len(), 3);
        assert!(m.is_strongly_connected());
        for &s in m.states() {
            // Closed walks of length 2 (via another color) and 3 exist, so
            // flexibility 2; length 1 is impossible (proper coloring).
            assert_eq!(m.flexibility(s), Some(2));
        }
    }

    #[test]
    fn two_coloring_is_inflexible() {
        let p = problem("1:22\n2:11\n");
        let m = Automaton::of(&p);
        assert!(m.flexible_states().is_empty());
        let comps = m.components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].period, 2);
    }

    #[test]
    fn isolated_label_is_its_own_trivial_component() {
        let p = problem("1 : 1 1\nlabels: z\n");
        let m = Automaton::of(&p);
        let z = p.label_by_name("z").unwrap();
        let comps = m.components();
        assert_eq!(comps.len(), 2);
        let z_comp = comps.iter().find(|c| c.states.contains(z)).unwrap();
        assert!(!z_comp.has_cycle);
        assert_eq!(z_comp.period, 0);
        assert_eq!(m.flexibility(z), None);
    }

    #[test]
    fn minimal_absorbing_component_prefers_sinks_with_cycles() {
        // a → b (one way), b has a self-loop: the sink SCC is {b}.
        let p = problem("a : b b\nb : b b\n");
        let m = Automaton::of(&p);
        let b = p.label_by_name("b").unwrap();
        let mac = m.minimal_absorbing_component().unwrap();
        assert_eq!(mac.len(), 1);
        assert!(mac.contains(b));
    }

    #[test]
    fn minimal_absorbing_component_of_strongly_connected_automaton_is_everything() {
        let p = problem("1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n");
        let m = Automaton::of(&p);
        let mac = m.minimal_absorbing_component().unwrap();
        assert_eq!(mac.len(), 3);
    }

    #[test]
    fn find_walk_exact_lengths() {
        let p = pi0();
        let m = Automaton::of(&p);
        let l = |n: &str| p.label_by_name(n).unwrap();
        // 2 → 1 → 1 → 2 is a walk of length 3.
        let walk = m.find_walk(l("2"), l("2"), 3).unwrap();
        assert_eq!(walk.len(), 4);
        assert_eq!(walk[0], l("2"));
        assert_eq!(walk[3], l("2"));
        for pair in walk.windows(2) {
            assert!(m.has_edge(pair[0], pair[1]));
        }
        // No closed walk of length 1 from 2.
        assert!(m.find_walk(l("2"), l("2"), 1).is_none());
        // In the {a, b} component only even-length walks from a to a exist.
        assert!(m.walk_exists(l("a"), l("a"), 4));
        assert!(!m.walk_exists(l("a"), l("a"), 5));
    }

    #[test]
    fn walk_of_length_zero() {
        let p = pi0();
        let m = Automaton::of(&p);
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        assert_eq!(m.find_walk(one, one, 0), Some(vec![one]));
        assert!(m.find_walk(one, two, 0).is_none());
    }

    #[test]
    fn flexibility_of_longer_cycles() {
        // A 2-cycle plus a 3-cycle sharing state x: period 1, flexibility follows
        // the Chicken McNugget bound (2 and 3 ⇒ every length ≥ 2 achievable).
        let p = problem("x : y\ny : x\nx : u\nu : v\nv : x\n");
        assert_eq!(p.delta(), 1);
        let m = Automaton::of(&p);
        let x = p.label_by_name("x").unwrap();
        assert_eq!(m.flexibility(x), Some(2));
    }

    /// Path-form problems (δ = 1) over `n` labels whose edge sets are the
    /// bits of `edges`, bit `i * n + j` standing for `i → j`.
    fn digraph(n: usize, edges: u64) -> LclProblem {
        let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let mut b = crate::problem::ProblemBuilder::new(1);
        for name in &names {
            b.label(name);
        }
        for i in 0..n {
            for j in 0..n {
                if edges & (1 << (i * n + j)) != 0 {
                    b.configuration(&names[i], &[names[j].as_str()]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn components_and_flexibility_match_reference() {
        // Every digraph on three states, then seeded random ones on up to
        // eight states, dense enough for large primitive components.
        let mut problems: Vec<LclProblem> = (0..1u64 << 9).map(|e| digraph(3, e)).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..600 {
            let n = 4 + i % 5;
            let mut edges = 0u64;
            for bit in 0..n * n {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if (state >> 33).is_multiple_of(4) {
                    edges |= 1 << bit;
                }
            }
            problems.push(digraph(n, edges));
        }
        for p in problems {
            let m = Automaton::of(&p);
            let mut expected = reference::components(&m);
            expected.sort_by_key(|c| c.states.first());
            assert_eq!(m.components(), expected, "problem {:?}", p.to_text());
            assert_eq!(
                m.minimal_absorbing_component(),
                reference::minimal_absorbing_component(&m)
            );
            for l in p.labels() {
                assert_eq!(
                    m.flexibility(l),
                    reference::flexibility(&m, l),
                    "problem {:?}, state {l:?}",
                    p.to_text()
                );
            }
        }
    }
}
