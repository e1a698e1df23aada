//! GM98 evaluation, reconstructed — **overhead**: steady-state message
//! rate of the accelerated heartbeat versus the naive fixed-period
//! baseline, as the acceleration ratio `tmax/tmin` grows.
//!
//! Paper claim (reconstructed from the protocol definitions): the
//! accelerated protocol's steady-state rate is `~2/tmax`, *independent*
//! of how fast it can accelerate; a naive protocol that wants the same
//! detection bound and the same loss tolerance must beat at
//! `period = bound/(tolerance+1)`, i.e. several times faster.

use bench::{mean, stddev};
use hb_core::{Params, Variant};
use hb_sim::{run_scenario, NaiveConfig, NaiveWorld, Scenario};
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let tmin = 2u32;
    let horizon = 50_000;
    println!("steady-state overhead vs acceleration ratio (tmin = {tmin}, horizon = {horizon})\n");
    println!(
        "{:>6} {:>7} | {:>10} {:>10} {:>9} {:>6} | {:>12} {:>9} | {:>8} | {:>9}",
        "tmax",
        "ratio",
        "acc meas",
        "acc ~2/tmax",
        "detect",
        "losses",
        "naive match",
        "detect",
        "overhead*",
        "@rate det†"
    );
    println!("{}", "-".repeat(109));
    for ratio in [1u32, 2, 4, 8, 16, 32] {
        let tmax = tmin * ratio;
        let params = Params::new(tmin, tmax).expect("valid");
        let rates: Vec<f64> = (0..8)
            .map(|seed| {
                run_scenario(
                    &Scenario::steady_state(Variant::Binary, params, horizon),
                    seed,
                )
                .message_rate()
            })
            .collect();
        let acc_detect = params.p0_bound_corrected(Variant::Binary);
        let tolerance = params.silent_rounds_to_inactivation() - 1;

        // Naive protocol matching the accelerated detection bound at equal
        // loss tolerance.
        let naive_cfg = NaiveConfig {
            period: (acc_detect / (tolerance + 1)).max(1),
            tolerance,
            delay_bound: tmin,
            n: 1,
            loss_prob: 0.0,
        };
        let naive_rates: Vec<f64> = (0..8)
            .map(|seed| {
                let mut w = NaiveWorld::new(naive_cfg, seed);
                w.run_until(horizon);
                w.into_report().message_rate()
            })
            .collect();

        // Naive protocol matching the accelerated *rate* instead (period
        // tmax) at the same loss tolerance: its detection bound balloons.
        let naive_at_rate = NaiveConfig {
            period: tmax,
            ..naive_cfg
        };

        println!(
            "{:>6} {:>6}x | {:>7.4}±{:>4.3} {:>10.4} {:>9} {:>6} | {:>8.4}±{:>3.2} {:>9} | {:>7.1}x | {:>9}",
            tmax,
            ratio,
            mean(&rates),
            stddev(&rates),
            2.0 / f64::from(tmax),
            acc_detect,
            tolerance,
            mean(&naive_rates),
            stddev(&naive_rates),
            naive_cfg.detection_bound(),
            mean(&naive_rates) / mean(&rates).max(1e-9),
            naive_at_rate.detection_bound(),
        );
    }
    println!(
        "\n(*) overhead factor: messages the detection- and tolerance-matched naive\n\
         protocol sends per accelerated message. The accelerated rate tracks\n\
         2/tmax while its detection bound stays ~3*tmax - tmin — the GM98 thesis:\n\
         overhead falls linearly in tmax with only a linear (and loss-robust)\n\
         detection cost, while the naive protocol pays the product.\n\
         `losses`: consecutive lost beats the accelerated protocol survives.\n\
         (†) the naive detection bound when it matches the accelerated rate\n\
         (period = tmax) at the same loss tolerance, against `detect`."
    );
    println!("wall time: {:.1?}", t0.elapsed());
}
