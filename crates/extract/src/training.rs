//! Synthetic labelled training data for the review-page classifier.
//!
//! The paper trains its Naïve Bayes on editorially labelled pages; we train
//! on samples drawn from the same generative text models the corpus uses to
//! render pages — positives from the review language model, negatives from
//! listing boilerplate (including the contact lines and headers that also
//! appear on review pages, so the classes genuinely overlap).

use crate::nb::{NaiveBayes, TrainError};
use webstruct_corpus::phone::{PhoneFormat, PhoneNumber};
use webstruct_corpus::text;
use webstruct_util::rng::{Seed, Xoshiro256};

const SAMPLE_NAMES: &[&str] = &[
    "Harborview Kitchen",
    "Blue Lantern Diner",
    "Prairie Crown Grill",
    "Cedar Hollow Cafe",
    "Ruby Crossing Bistro",
    "Stone Bridge Trattoria",
];

/// Generate `n_per_class` positive and negative documents.
#[must_use]
pub fn review_training_set(seed: Seed, n_per_class: usize) -> Vec<(String, bool)> {
    let mut rng = Xoshiro256::from_seed(seed.derive("nb-train"));
    let mut docs = Vec::with_capacity(n_per_class * 2);
    for _ in 0..n_per_class {
        // Positive: one to three review paragraphs, plus the same contact
        // framing a real review page carries.
        let name = SAMPLE_NAMES[rng.usize_below(SAMPLE_NAMES.len())];
        let mut pos = format!(
            "Reviews of {name}. Contact: {}\n",
            PhoneNumber::random(&mut rng).format(PhoneFormat::random(&mut rng))
        );
        for _ in 0..=rng.usize_below(3) {
            pos.push_str(&text::review_paragraph(&mut rng, name));
            pos.push('\n');
        }
        docs.push((pos, true));

        // Negative: listing-style page with names, contact lines and
        // boilerplate but no review language.
        let mut neg = String::new();
        let n_sentences = 2 + rng.usize_below(3);
        neg.push_str(&text::boilerplate_block(&mut rng, n_sentences));
        for _ in 0..=rng.usize_below(3) {
            let name = SAMPLE_NAMES[rng.usize_below(SAMPLE_NAMES.len())];
            neg.push_str(&format!(
                "\n{name}. Call {}.",
                PhoneNumber::random(&mut rng).format(PhoneFormat::random(&mut rng))
            ));
        }
        docs.push((neg, false));
    }
    docs
}

/// Train the default review classifier used by the extraction pipeline.
///
/// # Errors
/// Propagates [`TrainError`] (cannot occur for `n_per_class > 0`).
pub fn train_review_classifier(seed: Seed, n_per_class: usize) -> Result<NaiveBayes, TrainError> {
    let docs = review_training_set(seed, n_per_class);
    NaiveBayes::train(docs.iter().map(|(t, l)| (t.as_str(), *l)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_set_is_balanced_and_deterministic() {
        let a = review_training_set(Seed(1), 50);
        let b = review_training_set(Seed(1), 50);
        assert_eq!(a.len(), 100);
        assert_eq!(a.iter().filter(|(_, l)| *l).count(), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn classifier_separates_held_out_samples() {
        let clf = train_review_classifier(Seed(2), 200).unwrap();
        let held_out = review_training_set(Seed(3), 200);
        let acc = clf.accuracy(held_out.iter().map(|(t, l)| (t.as_str(), *l)));
        assert!(acc > 0.95, "held-out accuracy {acc}");
    }

    #[test]
    fn classifier_handles_corpus_rendered_text() {
        let clf = train_review_classifier(Seed(4), 100).unwrap();
        let mut rng = Xoshiro256::from_seed(Seed(5));
        let review = text::review_paragraph(&mut rng, "Amber Mill Grill");
        let listing = text::boilerplate_block(&mut rng, 4);
        let mut buf = String::new();
        assert!(clf.log_odds_with(&review, &mut buf) > 0.0);
        assert!(clf.log_odds_with(&listing, &mut buf) <= 0.0);
    }
}
