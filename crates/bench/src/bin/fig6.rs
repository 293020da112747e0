//! Fig. 6: algorithm selection for scatter, 100 KB < M < 200 KB.
//!
//! Expected shape (paper): the heterogeneous Hockney model mispredicts
//! that the binomial algorithm outperforms the linear one in this window;
//! the LMO model ranks them correctly (linear wins).

use cpm_bench::{Figure, PaperContext, Series};
use cpm_collectives::measure;
use cpm_collectives::select::predict_scatter_lmo;
use cpm_collectives::Algorithm;
use cpm_core::sweep::fig6_sweep;
use cpm_stats::summary::median;

fn main() {
    let ctx = PaperContext::from_env();
    let sizes = fig6_sweep();
    let reps = ctx.obs_reps();
    let root = ctx.root;

    eprintln!("[cpm] observing linear and binomial scatter, 100–200 KB …");
    let observe = |binomial: bool| -> Series {
        Series {
            label: if binomial {
                "obs binomial"
            } else {
                "obs linear"
            }
            .into(),
            points: sizes
                .iter()
                .map(|&m| {
                    let ts = if binomial {
                        measure::binomial_scatter_times(&ctx.sim, root, m, reps, m)
                    } else {
                        measure::linear_scatter_times(&ctx.sim, root, m, reps, m)
                    }
                    .expect("simulation runs");
                    (m, median(&ts).unwrap())
                })
                .collect(),
        }
    };
    let obs_lin = observe(false);
    let obs_bin = observe(true);

    let mut fig = Figure::new("fig6", "scatter algorithm selection, 100–200 KB");
    fig.push(obs_lin.clone());
    fig.push(obs_bin.clone());
    // The paper's Hockney comparison uses the closed forms: linear
    // Σ(α+βM) vs binomial log₂n·α + (n−1)βM — the latter is *always*
    // smaller, which is precisely the misprediction Fig. 6 demonstrates.
    fig.push(Series::from_fn("Hockney linear", &sizes, |m| {
        ctx.hockney_hom.linear_serial(m)
    }));
    fig.push(Series::from_fn("Hockney binomial", &sizes, |m| {
        ctx.hockney_hom.binomial(m)
    }));
    fig.push(Series::from_fn("LMO linear", &sizes, |m| {
        predict_scatter_lmo(&ctx.lmo, root, m).linear
    }));
    fig.push(Series::from_fn("LMO binomial", &sizes, |m| {
        predict_scatter_lmo(&ctx.lmo, root, m).binomial
    }));
    print!("{}", fig.render());

    println!();
    println!(
        "{:>10} {:>12} {:>16} {:>12}",
        "M", "observed", "Hockney choice", "LMO choice"
    );
    let mut hockney_correct = 0usize;
    let mut lmo_correct = 0usize;
    for &m in &sizes {
        let truth = if obs_lin.at(m) <= obs_bin.at(m) {
            Algorithm::Linear
        } else {
            Algorithm::Binomial
        };
        let hockney = if ctx.hockney_hom.linear_serial(m) <= ctx.hockney_hom.binomial(m) {
            Algorithm::Linear
        } else {
            Algorithm::Binomial
        };
        let lmo = predict_scatter_lmo(&ctx.lmo, root, m).choice();
        if hockney == truth {
            hockney_correct += 1;
        }
        if lmo == truth {
            lmo_correct += 1;
        }
        println!(
            "{:>10} {:>12?} {:>16?} {:>12?}",
            cpm_core::units::format_bytes(m),
            truth,
            hockney,
            lmo
        );
    }
    println!(
        "correct decisions: Hockney {}/{}  LMO {}/{}",
        hockney_correct,
        sizes.len(),
        lmo_correct,
        sizes.len()
    );
    match cpm_collectives::select::scatter_crossover(&ctx.lmo, root, 1, 512 * 1024) {
        Some(x) => println!(
            "LMO binomial→linear switch point: {} — a tuned MPI would switch there",
            cpm_core::units::format_bytes(x)
        ),
        None => println!("LMO finds no binomial→linear switch in [1B, 512KB]"),
    }
    fig.save(cpm_bench::output::results_dir())
        .expect("write results");
}
