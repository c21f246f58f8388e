//! Host speed. A shared host runs the benchmark faster or slower from one
//! second to the next and from one run to the next, in CPU time too: a
//! fixed CPU loop varies by 10-27% on a 2-vCPU guest, and single pipeline
//! passes within one run by ±15%. A run's medians cannot average out a
//! slowdown that lasts the whole run. So the run also times a fixed
//! reference workload, in short ticks spread over the run (before each
//! set-up, each batch pass and each round of cold passes), and reports
//! its end-to-end timings at a nominal host speed:
//!
//! ```text
//! reported = CPU time × NOMINAL_REF / trimmed mean reference unit
//! ```
//!
//! The reference is the benchmark's own code and calls no program code,
//! so a change to the program moves the reported figures as much as the
//! measured ones, while a host that is slower for the run slows the
//! reference as well and cancels. The measured figures and the factor are
//! printed above the result.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::clock::process_time;

/// A reference unit's CPU time on an idle host (Intel Xeon, 2 vCPUs), in
/// seconds: a reported time reads as the CPU time the work would take on
/// that host at that speed.
pub const NOMINAL_REF: f64 = 0.0008;
/// Keys sorted, inserted and formatted by one reference unit (about
/// 0.8 ms).
const KEYS: usize = 4096;
/// A tick runs one unit per this much time since the previous tick ended,
/// so the reference samples the run evenly in time at about 5% of it.
const UNIT_EVERY: Duration = Duration::from_millis(16);
/// Units per tick, at least and at most.
const TICK_UNITS: (u32, u32) = (5, 400);
/// Share of the units dropped at each end before averaging.
const TRIM: f64 = 0.05;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The reference workload: a sort, ordered-map inserts and a range scan,
/// and number formatting with a string sort, over fixed keys. Those are
/// the branchy, allocating, cache-resident kinds of work the pipeline and
/// the daemon do. On a 2-vCPU guest the median time of each of them
/// followed one-second medians of a pipeline pass (correlation 0.9) and
/// of a cold pass far more closely than a pointer chase over 8 MiB or an
/// integer loop did; dividing by their sum more than halved the spread of
/// the pass's one-second medians and cut the cold pass's by a third.
pub struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    text: String,
    /// Every unit's time, seconds.
    samples: Vec<f64>,
    /// When the previous tick ended.
    last: Option<Instant>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x5eed;
        Reference {
            keys: (0..KEYS).map(|_| splitmix(&mut x)).collect(),
            sorted: Vec::with_capacity(KEYS),
            text: String::with_capacity(KEYS * 21),
            samples: Vec::new(),
            last: None,
        }
    }

    /// One unit of reference work, seconds of process CPU time.
    fn unit(&mut self) -> f64 {
        let start = process_time();
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let map: BTreeMap<u64, usize> =
            self.keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let below_half = map.range(..u64::MAX / 2).count();
        self.text.clear();
        for k in &self.keys {
            let _ = write!(self.text, "{k} ");
        }
        let mut words: Vec<&str> = self.text.split(' ').collect();
        words.sort_unstable();
        black_box((self.sorted[KEYS / 2], below_half, words[KEYS / 2]));
        (process_time() - start).as_secs_f64()
    }

    /// Runs reference units in proportion to the time since the previous
    /// tick (see [`UNIT_EVERY`]).
    pub fn tick(&mut self) {
        let since = self.last.map_or(Duration::ZERO, |t| t.elapsed());
        let n = (since.as_secs_f64() / UNIT_EVERY.as_secs_f64()) as u32;
        for _ in 0..n.clamp(TICK_UNITS.0, TICK_UNITS.1) {
            let unit = self.unit();
            self.samples.push(unit);
        }
        self.last = Some(Instant::now());
    }

    /// A mark from which [`Reference::factor_since`] counts units.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// The mean unit time since `mark`, seconds, without the fastest and
    /// the slowest [`TRIM`] of the units. A pass's time integrates the
    /// host's speed over the pass, so the matching summary of the units is
    /// a mean, not a median: when a slow stretch covers 40% of a run, the
    /// median unit misses it entirely while every pass is slower. The trim
    /// drops single units a preemption or an interrupt cut into.
    fn mean_since(&self, mark: usize) -> f64 {
        let mut units = self.samples[mark..].to_vec();
        units.sort_by(f64::total_cmp);
        let cut = (units.len() as f64 * TRIM) as usize;
        let kept = &units[cut..units.len() - cut];
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// The factor that scales times measured since `mark` to the nominal
    /// host speed: [`NOMINAL_REF`] over the trimmed mean unit since then
    /// (1 if no unit ran).
    pub fn factor_since(&self, mark: usize) -> f64 {
        if mark >= self.samples.len() {
            1.0
        } else {
            NOMINAL_REF / self.mean_since(mark)
        }
    }

    /// One line on the units since `mark` and the factor they give.
    pub fn describe(&self, mark: usize) -> String {
        format!(
            "host speed: mean reference unit {:.1} us CPU over {} units, nominal {:.1} us, factor {:.4}",
            self.mean_since(mark) * 1e6,
            self.samples.len() - mark,
            NOMINAL_REF * 1e6,
            self.factor_since(mark)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_divides_the_nominal_unit_by_the_mean_unit_since_a_mark() {
        let mut r = Reference::new();
        assert_eq!(r.factor_since(r.mark()), 1.0);
        r.tick();
        assert_eq!(r.mark(), TICK_UNITS.0 as usize);
        assert!(r.factor_since(0).is_finite() && r.factor_since(0) > 0.0);
        r.samples = vec![9.0, 3.0 * NOMINAL_REF, NOMINAL_REF, 2.0 * NOMINAL_REF];
        assert!((r.factor_since(1) - 0.5).abs() < 1e-12);
        assert!(r.describe(1).contains("over 3 units"));
        // Twenty units: the fastest and the slowest are trimmed.
        r.samples = (0..20)
            .map(|i| NOMINAL_REF * if i == 0 { 100.0 } else { 2.0 })
            .collect();
        r.samples[1] = 0.0;
        assert!((r.factor_since(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_tick_runs_units_in_proportion_to_the_time_since_the_last() {
        let mut r = Reference::new();
        r.tick();
        std::thread::sleep(UNIT_EVERY * 20);
        r.tick();
        let second = r.mark() - TICK_UNITS.0 as usize;
        assert!((20..=25).contains(&second), "{second} units");
    }
}
