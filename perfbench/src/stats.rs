//! Small numeric helpers shared by the harness.

/// Median of a non-empty sample (mean of the middle pair for even sizes).
/// Returns 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of an unsorted sample.
pub fn percentile_ns(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// does, so `--aa` reports the spread the driver will compute.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// splitmix64: the harness's own seeded stream, so the inputs depend on
/// `--seed` and on nothing the measured program links.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Threads of this process, from `/proc/self/status`.
pub fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The calibration kernel: a fixed amount of harness-owned arithmetic
/// (a dependent multiply-add sweep over a 256 KiB array) whose duration
/// tracks how fast the machine is right now.
///
/// The benchmark box is a shared two-vCPU guest whose speed shifts by
/// 10 to 20 % for seconds at a time, whatever runs on it. A time measured
/// on it is therefore reported as `time * NOMINAL / calibration`, with
/// the calibration taken right next to the measurement: "microseconds on
/// this machine at its nominal speed". The raw times are printed too.
pub struct Calibration {
    values: Vec<f64>,
}

/// Duration of one [`Calibration::run`] on the benchmark box when
/// nothing disturbs it (median of 2 000 runs pinned to one CPU). It only
/// fixes the unit: a normalised time equals the raw time at this speed.
pub const NOMINAL_CALIBRATION_NS: f64 = 360_000.0;

impl Calibration {
    const ELEMENTS: usize = 32 * 1024;
    const SWEEPS: usize = 3;

    pub fn new() -> Self {
        Calibration {
            values: vec![1.0; Self::ELEMENTS],
        }
    }

    /// Nanoseconds one run of the kernel took.
    pub fn run(&mut self) -> f64 {
        let start = std::time::Instant::now();
        for sweep in 0..Self::SWEEPS {
            let bias = sweep as f64 * 1e-9;
            let v = self.values.as_mut_slice();
            for i in 1..v.len() {
                // Stays in [1, 2]: no overflow, no denormals.
                v[i] = (v[i - 1] * 0.999 + v[i] * 0.001 + bias).min(2.0);
            }
        }
        std::hint::black_box(&self.values);
        start.elapsed().as_nanos() as f64
    }

    /// Median of `runs` runs.
    pub fn sample(&mut self, runs: usize) -> f64 {
        median(&(0..runs.max(1)).map(|_| self.run()).collect::<Vec<_>>())
    }

    /// Factor that turns a time measured next to a calibration of
    /// `calibration_ns` into nominal-speed time.
    pub fn factor(calibration_ns: f64) -> f64 {
        NOMINAL_CALIBRATION_NS / calibration_ns
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

/// Pin this process (and every thread it starts later) to one CPU, the
/// highest-numbered one it may run on. Returns that CPU.
///
/// The closed loop has one request in flight, so at any moment one
/// thread has work; a second CPU adds no throughput. It adds noise: on
/// this two-vCPU guest a hand-off to a thread on the other, halted, vCPU
/// costs 20 to 100 µs, one on the same CPU 2 µs, and which of the two a
/// run gets is the scheduler's choice (measured: the same loopback step
/// has a median of 37 µs or of 350 µs).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of the size passed; pid 0 is
    // the calling thread, which at this point is the only one.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0, 4.0, 1.5, 9.0], n=4)
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.5, 9.0]),
            Some([1.25, 3.0, 6.5])
        );
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&mut v, 0.5), 50);
        assert_eq!(percentile_ns(&mut v, 0.99), 99);
    }
}
