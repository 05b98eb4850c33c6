//! Regenerate every table and figure of the paper and write the artifacts
//! (gnuplot `.dat` files + Markdown tables) to `artifacts/`.
//!
//! Run with `cargo run --release --example reproduce_paper [scale] [outdir]`.
//! Scale 1.0 is the documented reproduction scale used by EXPERIMENTS.md.

use webstruct::core::cache::Study;
use webstruct::core::experiments::connectivity;
use webstruct::core::milestones::milestones_table;
use webstruct::core::runner::{run_all, run_extensions, write_outputs};
use webstruct::core::study::StudyConfig;
use webstruct::demand::{top_share, Channel, StudySite};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let outdir = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "artifacts".to_string());
    let config = StudyConfig::default().with_scale(scale);

    println!("== reproducing all tables & figures (scale {scale}) ==");
    let t0 = std::time::Instant::now();
    let output = run_all(&config);
    println!(
        "generated {} figures and {} tables in {:.1?}",
        output.figures.len(),
        output.tables.len(),
        t0.elapsed()
    );
    write_outputs(std::path::Path::new(&outdir), &output).expect("write artifacts");
    let extensions = run_extensions(&config);
    write_outputs(
        &std::path::Path::new(&outdir).join("extensions"),
        &extensions,
    )
    .expect("write extension artifacts");
    println!("artifacts written to {outdir}/ (+ extensions/)\n");
    println!("{}", milestones_table(&output).to_text());

    // ---- Headline milestones (the numbers EXPERIMENTS.md records) ------
    println!("--- paper-vs-measured milestones ---");
    let fig1a = output.figure("fig1a").expect("fig1a");
    let k1 = fig1a.series_named("k=1").unwrap();
    let k5 = fig1a.series_named("k=5").unwrap();
    println!(
        "Fig 1(a) restaurant phones: top-10 k=1 coverage = {:.3} (paper ~0.93); \
         k=5 reaches 90% at ~{} sites (paper ~5000)",
        k1.interpolate(10.0).unwrap_or(0.0),
        k5.first_x_reaching(0.9).map_or("n/a".into(), |x| format!("{x:.0}")),
    );
    let fig2a = output.figure("fig2a").expect("fig2a");
    let h1 = fig2a.series_named("k=1").unwrap();
    println!(
        "Fig 2(a) restaurant homepages: k=1 reaches 95% at ~{} sites (paper ~10000 of ~1e6)",
        h1.first_x_reaching(0.95).map_or("n/a".into(), |x| format!("{x:.0}")),
    );
    let fig4a = output.figure("fig4a").expect("fig4a");
    let r1 = fig4a.series_named("k=1").unwrap();
    let r2 = fig4a.series_named("k=2").unwrap();
    println!(
        "Fig 4(a) reviews: k=1 90% at ~{} sites (paper >1000); k=2 90% at ~{} (paper >5000)",
        r1.first_x_reaching(0.9).map_or("n/a".into(), |x| format!("{x:.0}")),
        r2.first_x_reaching(0.9).map_or("n/a".into(), |x| format!("{x:.0}")),
    );
    let fig4b = output.figure("fig4b").expect("fig4b");
    println!(
        "Fig 4(b): top-1000 sites hold {:.0}% of review pages (paper ~80%) vs {:.0}% entity coverage (paper ~95%)",
        100.0 * fig4b.series[0].interpolate(1000.0).unwrap_or(0.0),
        100.0 * r1.interpolate(1000.0).unwrap_or(0.0),
    );
    let fig5 = output.figure("fig5").expect("fig5");
    let by_size = fig5.series_named("Order by Size").unwrap();
    let greedy = fig5.series_named("Greedy Set Cover").unwrap();
    let max_gain = greedy
        .points
        .iter()
        .map(|&(t, g)| g - by_size.interpolate(t).unwrap_or(0.0))
        .fold(f64::MIN, f64::max);
    println!("Fig 5: max greedy improvement over by-size = {max_gain:.3} (paper: 'insignificant')");

    // Fig 6 shares need the traffic studies; simulate them again (seeded,
    // so the same studies the run used).
    let study = Study::new(config.clone());
    print!("Fig 6 search top-20% demand share:");
    for site in StudySite::ALL {
        let t = study.traffic(site);
        print!("  {} {:.0}%", site.slug(), 100.0 * top_share(&t, Channel::Search, 0.2));
    }
    println!("  (paper: imdb >90%, yelp ~60%)");

    for (name, id) in [("yelp", "fig8-yelp"), ("amazon", "fig8-amazon"), ("imdb", "fig8-imdb")] {
        let fig = output.figure(id).expect("fig8 panel");
        let s = fig.series_named("search").unwrap();
        let head = s.points.last().map_or(0.0, |&(_, y)| y);
        let peak = s.points.iter().map(|&(_, y)| y).fold(f64::MIN, f64::max);
        println!("Fig 8 {name}: VA head ratio {head:.2}, peak {peak:.2}");
    }

    println!("\n--- Table 2 (measured) ---");
    let t2 = connectivity::table2(&study);
    println!("{}", t2.to_text());
}
