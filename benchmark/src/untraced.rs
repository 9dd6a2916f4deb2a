//! The end-to-end run: closed-loop `racesim tune` campaigns, one at a
//! time, with tracing off.

use crate::campaign::{Campaign, Runner};
use crate::host;
use crate::report::{RunReport, END_TO_END};
use crate::stats::median;
use crate::workload::{campaign_seed, Workload, HOLDOUT_SCALE, REFERENCE_SEED};
use racesim_core::validator::{evaluate_platform, PreparedSuite};
use racesim_decoder::Decoder;
use racesim_kernels::{spec_suite, Scale};
use racesim_sim::config_text;
use std::time::Instant;

/// Timed campaigns a run makes however short `--seconds` is, so every
/// median has samples on both sides.
const MIN_CAMPAIGNS: u64 = 3;

/// Runs `w` for about `seconds`:
///
/// 1. the reference campaign (tuner seed [`REFERENCE_SEED`]) in-process,
///    untimed — it warms the page cache and gives the exact accuracy
///    metrics;
/// 2. timed campaigns at tuner seeds derived from `seed`, started while
///    the next one is expected to end within `seconds`; an in-process
///    campaign is preceded by a host-speed probe;
/// 3. the first timed campaign again with `--workers 0`, which must
///    reproduce it exactly (for the distributed workload this checks that
///    the worker pool changes nothing).
///
/// Timing metrics are medians over step 2. In-process campaigns are
/// CPU-bound, so their timings are scaled to the reference host speed by
/// the median probe (see [`host`](crate::host)). Through the worker pool
/// nearly all of the tuning wall is spent waiting on dispatch, which a
/// slower CPU barely lengthens, so those timings are reported as measured.
pub fn run(runner: &Runner, w: &Workload, seed: u64, seconds: f64) -> RunReport {
    let mut rep = RunReport::default();
    let reference = rep.campaign(
        "reference campaign",
        w.budget,
        runner.run(w, REFERENCE_SEED, 0),
    );

    let scaled = w.workers == 0;
    let start = Instant::now();
    let mut timed: Vec<(u64, Campaign)> = Vec::new();
    let mut probes = Vec::new();
    for i in 0..1000 {
        let elapsed = start.elapsed().as_secs_f64();
        let per_campaign = if i == 0 { 0.0 } else { elapsed / i as f64 };
        if i >= MIN_CAMPAIGNS && elapsed + per_campaign > seconds {
            break;
        }
        if scaled {
            probes.push(host::probe_s());
        }
        let s = campaign_seed(seed, i);
        let what = format!("campaign seed {s}");
        if let Some(c) = rep.campaign(&what, w.budget, runner.run(w, s, w.workers)) {
            rep.outcomes
                .push((s, c.summary.best_cost_text.clone(), c.summary.evals));
            timed.push((s, c));
        }
    }

    if let Some((s, first)) = timed.first() {
        let what = format!("in-process rerun of campaign seed {s}");
        if let Some(again) = rep.campaign(&what, w.budget, runner.run(w, *s, 0)) {
            if !first.same_outcome(&again) {
                let why = format!(
                    "not reproducible: {:?} then {:?}",
                    first.summary, again.summary
                );
                rep.reject(&what, again.summary.evals, &why);
            }
        }
    }

    if !timed.is_empty() {
        let of =
            |f: fn(&Campaign) -> f64| median(&timed.iter().map(|(_, c)| f(c)).collect::<Vec<_>>());
        let (wall, setup, rate) = (
            of(|c| c.wall_s),
            of(|c| c.setup_s),
            of(Campaign::evals_per_s),
        );
        eprintln!(
            "{}: raw medians: wall {wall:.4} s, set-up {setup:.4} s, {rate:.1} evaluations/s",
            w.name
        );
        // How much slower than the reference speed the host ran.
        let slowdown = if scaled {
            let probe = median(&probes);
            eprintln!(
                "{}: host probe {:.1} ms: timings scaled by {:.4}",
                w.name,
                probe * 1e3,
                host::REFERENCE_PROBE_S / probe
            );
            probe / host::REFERENCE_PROBE_S
        } else {
            1.0
        };
        rep.put("campaign_wall_s", wall / slowdown);
        rep.put("setup_s", setup / slowdown);
        rep.put("evals_per_s", rate * slowdown);
        rep.put("peak_rss_mb", of(|c| c.peak_rss_mb));
    }
    if let Some(r) = &reference {
        rep.outcomes.push((
            REFERENCE_SEED,
            r.summary.best_cost_text.clone(),
            r.summary.evals,
        ));
        rep.put("best_cost_pct", r.summary.best_cost);
        match holdout_error_pct(w, &r.tuned_text) {
            Ok(pct) => rep.put("holdout_cpi_error_pct", pct),
            Err(e) => rep.error(format!("holdout check: {e}")),
        }
    }
    rep.require(END_TO_END.into_iter());
    rep
}

/// Mean absolute CPI error of a tuned configuration (as `racesim tune
/// --out` wrote it) on the SPEC proxies, against the workload's reference
/// board: the check on data held back from tuning.
///
/// # Errors
///
/// Fails when the configuration does not parse or a proxy cannot be
/// measured.
pub fn holdout_error_pct(w: &Workload, tuned_text: &str) -> Result<f64, String> {
    let platform = config_text::from_text(tuned_text).map_err(|e| e.to_string())?;
    let board = w.spec(REFERENCE_SEED).board();
    let suite = PreparedSuite::prepare(&spec_suite(Scale::divide_by(HOLDOUT_SCALE)), &board)
        .map_err(|e| e.to_string())?;
    let results = evaluate_platform(&platform, Decoder::new(), &suite);
    Ok(results.iter().map(|r| r.error_pct()).sum::<f64>() / results.len() as f64)
}
