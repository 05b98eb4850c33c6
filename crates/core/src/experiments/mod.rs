//! The experiment registry: one function per table/figure of the paper.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 | [`table1`] |
//! | Figure 1(a)–(h) | [`spread::fig1`] |
//! | Figure 2(a)–(h) | [`spread::fig2`] |
//! | Figure 3 | [`spread::fig3`] |
//! | Figure 4(a)/(b) | [`spread::fig4`] |
//! | Figure 5 | [`spread::fig5`] |
//! | Figure 6(a)–(d) | [`tail_value::fig6`] |
//! | Figure 7 | [`tail_value::fig7`] |
//! | Figure 8 | [`tail_value::fig8`] |
//! | Table 2 | [`connectivity::table2`] |
//! | Figure 9(a)–(c) | [`connectivity::fig9`] |
//!
//! Extensions (motivated by the paper's text, beyond its own artifacts):
//! [`redundancy::redundancy_experiment`] (§2/§3.3 corroboration),
//! [`discovery::discovery_policies`],
//! [`discovery::discovery_seed_robustness`] and
//! [`discovery::discovery_under_failure`] (§5 operational discovery,
//! healthy and under injected faults),
//! [`tail_value::user_tail_table`] (§4.2 user-level tail analysis),
//! [`linkage::linkage_table`] (§1 deduplication stage),
//! [`ablations::ablation_suite`] (which model ingredient drives which
//! finding), [`open_extraction::open_extraction`] (catalog-free database
//! construction: wrappers + scanner + dedup). Every extension but open
//! extraction also has a `Table` or `Figure` form that
//! [`crate::runner::run_extensions`] writes, e.g.
//! [`connectivity::bootstrap_table`] (§5.2 set expansion) and
//! [`spread::precision_table`] (§3.5 false matches).

pub mod ablations;
pub mod connectivity;
pub mod discovery;
pub mod linkage;
pub mod open_extraction;
pub mod redundancy;
pub mod stability;
pub mod spread;
pub mod tail_value;

use webstruct_corpus::domain::Domain;
use webstruct_util::report::Table;

/// Table 1: the list of domains and studied attributes.
#[must_use]
pub fn table1() -> Table {
    let mut t = Table::new("Table 1: List of Domains", &["Domains", "Attributes"]);
    for d in Domain::ALL {
        let attrs: Vec<&str> = d.attributes().iter().map(|a| a.slug()).collect();
        t.push_row(vec![d.display_name().to_string(), attrs.join(", ")]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert_eq!(t.rows.len(), 9);
        let md = t.to_markdown();
        assert!(md.contains("| Books | isbn |"));
        assert!(md.contains("| Restaurants | phone, homepage, review |"));
        assert!(md.contains("| Hotels & Lodging | phone, homepage |"));
    }
}
