//! Order statistics and process figures.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Requests that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values`: the value at the highest percentile with at
/// least [`TAIL_BEYOND`] values beyond it, as `(value, percentile,
/// values beyond)`. With too few values it is the maximum, with none
/// beyond.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    if n <= TAIL_BEYOND {
        return (v[n - 1], 100.0, 0);
    }
    let at = n - TAIL_BEYOND - 1;
    (v[at], 100.0 * (at + 1) as f64 / n as f64, TAIL_BEYOND)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
