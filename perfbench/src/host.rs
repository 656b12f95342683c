//! Host calibration, recorded next to every result: sharded runs on a host
//! whose OS-reported parallelism overstates what two spinning threads get
//! cannot be read without it.

use std::hint::black_box;
use std::time::Instant;

/// What the host reports and what it delivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// CPUs in this process's affinity mask (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Seconds one thread takes for the calibration spin.
    pub spin_1_s: f64,
    /// Wall seconds `available_parallelism` threads take for one spin each.
    pub spin_n_s: f64,
}

impl Host {
    /// Threads' worth of throughput the host delivers:
    /// `available_parallelism * spin_1 / spin_n` (1.0 = effectively one core).
    pub fn effective_parallelism(self) -> f64 {
        self.available_parallelism as f64 * self.spin_1_s / self.spin_n_s
    }

    /// One JSON object with every field and the derived parallelism.
    pub fn to_json(self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"spin_1_s\": {}, \
             \"spin_n_s\": {}, \"effective_parallelism\": {}}}",
            self.nproc,
            self.available_parallelism,
            self.spin_1_s,
            self.spin_n_s,
            self.effective_parallelism()
        )
    }
}

const SPIN_ITERATIONS: u64 = 20_000_000;

fn spin() -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..SPIN_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// CPUs listed in `Cpus_allowed_list` of `/proc/self/status`; falls back
/// to `available_parallelism` where the file is missing or unparsable.
fn nproc(fallback: usize) -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return fallback;
    };
    let Some(list) = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
    else {
        return fallback;
    };
    let mut count = 0;
    for range in list.trim().split(',') {
        let mut ends = range.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(_)), None) => count += 1,
            (Some(Ok(lo)), Some(Ok(hi))) if hi >= lo => count += hi - lo + 1,
            _ => return fallback,
        }
    }
    count
}

/// Measures the host: one spin alone, then one spin per reported CPU at
/// once.
pub fn calibrate() -> Host {
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    spin(); // warm-up
    let start = Instant::now();
    spin();
    let spin_1_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..available_parallelism {
            scope.spawn(spin);
        }
    });
    let spin_n_s = start.elapsed().as_secs_f64();
    Host {
        nproc: nproc(available_parallelism),
        available_parallelism,
        spin_1_s,
        spin_n_s,
    }
}

/// Restarts this process's peak-resident-set count (`VmHWM`) from the
/// current resident set; false where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
