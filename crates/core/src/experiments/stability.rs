//! Seed-stability experiment: are the reproduced milestones properties of
//! the *model* or accidents of one random draw?
//!
//! A measurement-study reproduction should report numbers that are stable
//! across the generator's randomness. This experiment re-runs the headline
//! milestones under independent seeds and reports mean ± standard
//! deviation; tests assert the relative spread is small.

use crate::cache::Study;
use crate::experiments::spread;
use crate::study::StudyConfig;
use webstruct_util::report::Table;
use webstruct_util::rng::Seed;
use webstruct_util::stats::{mean, std_dev};

/// One milestone's distribution across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct MilestoneStability {
    /// Milestone label.
    pub label: &'static str,
    /// Per-seed values.
    pub values: Vec<f64>,
    /// Mean across seeds.
    pub mean: f64,
    /// Standard deviation across seeds.
    pub std_dev: f64,
}

impl MilestoneStability {
    fn from_values(label: &'static str, values: Vec<f64>) -> Self {
        let m = mean(&values);
        let s = std_dev(&values);
        MilestoneStability {
            label,
            values,
            mean: m,
            std_dev: s,
        }
    }

    /// Coefficient of variation (std/mean); 0 when the mean is 0.
    #[must_use]
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        self.std_dev / self.mean.abs()
    }
}

/// Re-run the Figure 1(a) milestones under `n_seeds` independent seeds.
pub fn fig1_stability(base: &StudyConfig, n_seeds: usize) -> Vec<MilestoneStability> {
    assert!(n_seeds >= 2, "stability needs at least two seeds");
    let mut top10 = Vec::with_capacity(n_seeds);
    let mut k1_final = Vec::with_capacity(n_seeds);
    let mut k5_final = Vec::with_capacity(n_seeds);
    for i in 0..n_seeds {
        let config = base
            .clone()
            .with_seed(Seed::DEFAULT.derive_u64(0xAB1E + i as u64));
        let study = Study::new(config);
        let figs = spread::fig1(&study);
        let restaurants = &figs[0];
        let k1 = restaurants.series_named("k=1").expect("k=1 exists");
        let k5 = restaurants.series_named("k=5").expect("k=5 exists");
        top10.push(k1.interpolate(10.0).unwrap_or(0.0));
        k1_final.push(k1.final_y().unwrap_or(0.0));
        k5_final.push(k5.final_y().unwrap_or(0.0));
    }
    vec![
        MilestoneStability::from_values("fig1a top-10 k=1 coverage", top10),
        MilestoneStability::from_values("fig1a final k=1 coverage", k1_final),
        MilestoneStability::from_values("fig1a final k=5 coverage", k5_final),
    ]
}

/// [`fig1_stability`] as a table, one row per milestone.
pub fn stability_table(base: &StudyConfig, n_seeds: usize) -> Table {
    let mut table = Table::new(
        format!("Figure 1(a) milestone stability over {n_seeds} independent seeds"),
        &["Milestone", "Mean", "Std dev", "CV"],
    );
    for s in fig1_stability(base, n_seeds) {
        table.push_row(vec![
            s.label.to_string(),
            format!("{:.4}", s.mean),
            format!("{:.4}", s.std_dev),
            format!("{:.3}", s.cv()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milestones_are_stable_across_seeds() {
        let stats = fig1_stability(&StudyConfig::quick(), 4);
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert_eq!(s.values.len(), 4);
            assert!(s.mean > 0.3, "{}: mean {}", s.label, s.mean);
            assert!(
                s.cv() < 0.08,
                "{}: coefficient of variation {} too high (values {:?})",
                s.label,
                s.cv(),
                s.values
            );
        }
        // And the seeds genuinely differed (not all values identical).
        assert!(
            stats.iter().any(|s| s.std_dev > 0.0),
            "independent seeds must produce some variation"
        );
    }

    #[test]
    #[should_panic(expected = "at least two seeds")]
    fn one_seed_rejected() {
        let _ = fig1_stability(&StudyConfig::quick(), 1);
    }
}
