//! One module per paper table/figure; each `run()` returns a printable
//! report plus structured results for assertions.

pub mod ablations;
pub mod calibrate_fidelity;
pub mod chaos;
pub mod extension_hetero;
pub mod extension_schedules;
pub mod extension_zb;
pub mod fig12;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig3;
pub mod fill;
pub mod fleet;
pub mod lint_sweep;
pub mod planner_scaling;
pub mod plansvc;
pub mod recovery;
pub mod resilience;
pub mod table1;
pub mod table4;
pub mod table5;
pub mod table7;

/// `x` rounded to `places` decimals as a JSON number: the precision the
/// checked-in `BENCH_*.json` files record.
pub(crate) fn rounded(x: f64, places: i32) -> optimus_json::Json {
    let scale = 10f64.powi(places);
    optimus_json::Json::from((x * scale).round() / scale)
}
