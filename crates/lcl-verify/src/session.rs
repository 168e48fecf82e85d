//! The edit-batch step on one solved dynamic tree, shared by
//! `rtlcl solve --edits`, the daemon's `/edit` and the fuzzing oracle: each
//! passes in its own seeded [`EditScriptGen`] and [`SplitMix64`] and maps an
//! [`EditError`] to its own message.

use lcl_algorithms::{
    repair_labeling, LabelPerturbation, RepairOutcome, RepairPlan, RepairScratch, SolveError,
};
use lcl_core::{ClassificationReport, Label, LclProblem};
use lcl_rand::SplitMix64;
use lcl_sim::IdAssignment;
use lcl_trees::{DynamicTree, EditScriptGen, TreeEdit};

use crate::validator::{LabelingValidator, ValidationError};

/// A solved dynamic tree whose labeling is repaired incrementally, batch by
/// batch. It owns the repair plan, the validator, the repair scratch and the
/// per-batch edit and perturbation buffers, so a warm session reuses them.
#[derive(Debug)]
pub struct EditSession {
    problem: LclProblem,
    report: ClassificationReport,
    plan: RepairPlan,
    tree: DynamicTree,
    labels: Vec<Label>,
    /// Maintained across batches via [`IdAssignment::apply_journal`], so
    /// surviving nodes keep their identifiers.
    ids: IdAssignment,
    validator: LabelingValidator,
    scratch: RepairScratch,
    /// The problem's active labels, the pool perturbations draw from.
    active: Vec<Label>,
    edits: Vec<TreeEdit>,
    perturbations: Vec<LabelPerturbation>,
}

/// Why an edit batch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// [`repair_labeling`] failed; the labeling may be stale.
    Repair(SolveError),
    /// The repaired labeling fails validation on a dirty range.
    Invalid(ValidationError),
}

/// What one [`EditSession::apply_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditBatch {
    /// The repair's counters.
    pub repair: RepairOutcome,
    /// Dirty ranges validated (all of them: the batch succeeded).
    pub ranges_validated: usize,
}

impl EditSession {
    /// A session over `tree`, whose valid labeling `labels` solves
    /// `problem` (classified by `report`) under the identifiers `ids`.
    ///
    /// # Errors
    ///
    /// The repair plan cannot be built ([`RepairPlan::new`]).
    pub fn new(
        problem: LclProblem,
        report: ClassificationReport,
        tree: DynamicTree,
        labels: Vec<Label>,
        ids: IdAssignment,
    ) -> Result<Self, SolveError> {
        let plan = RepairPlan::new(&problem, &report)?;
        let validator = LabelingValidator::new(&problem);
        let active = problem.labels().iter().collect();
        Ok(EditSession {
            problem,
            report,
            plan,
            tree,
            labels,
            ids,
            validator,
            scratch: RepairScratch::new(),
            active,
            edits: Vec::new(),
            perturbations: Vec::new(),
        })
    }

    /// Applies one batch of `edits` edits drawn from `gen`, then repairs and
    /// validates: the identifiers follow the edit journal (before repair,
    /// which clears it), every relabeled node gets a label drawn with `rng`,
    /// [`repair_labeling`] repairs the labeling, and each dirty range it
    /// reports is validated.
    ///
    /// # Errors
    ///
    /// [`EditError::Repair`] if the repair fails, [`EditError::Invalid`] on
    /// the first dirty range that fails validation.
    pub fn apply_batch(
        &mut self,
        gen: &mut EditScriptGen,
        edits: usize,
        rng: &mut SplitMix64,
    ) -> Result<EditBatch, EditError> {
        self.edits.clear();
        gen.apply_batch(&mut self.tree, edits, &mut self.edits);
        self.ids.apply_journal(self.tree.journal());
        self.perturbations.clear();
        for &node in self.tree.relabel_sites() {
            let label = self.active[rng.gen_index(self.active.len())];
            self.perturbations.push(LabelPerturbation { node, label });
        }
        let repair = repair_labeling(
            &self.problem,
            &self.report,
            &self.plan,
            &mut self.tree,
            &mut self.labels,
            &self.perturbations,
            &mut self.scratch,
        )
        .map_err(EditError::Repair)?;
        let mut ranges_validated = 0;
        for range in self.scratch.dirty_ranges() {
            self.validator
                .validate_range(self.tree.tree(), &self.labels, range)
                .map_err(EditError::Invalid)?;
            ranges_validated += 1;
        }
        Ok(EditBatch {
            repair,
            ranges_validated,
        })
    }

    /// The tree as edited so far.
    pub fn tree(&self) -> &DynamicTree {
        &self.tree
    }

    /// The tree after a full [`DynamicTree::sync`], whose level index a
    /// from-scratch solve reads.
    pub fn sync(&mut self) -> &DynamicTree {
        self.tree.sync();
        &self.tree
    }

    /// The repaired labeling, indexed by node id.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The identifiers, maintained across every batch.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// Validates the whole labeling, not only the dirty ranges.
    ///
    /// # Errors
    ///
    /// The first violation [`LabelingValidator::validate_parallel`] finds.
    pub fn validate(&self) -> Result<(), ValidationError> {
        self.validator
            .validate_parallel(self.tree.tree(), &self.labels)
    }
}
