//! The measurement time-series behind the reproduced figures:
//! [`TimeSeries`] with a fixed bucket width produces the IPC-over-time
//! curves of Figs. 18–19 and the power curves of Figs. 20–21. Counters
//! and latency histograms live in `util::telemetry`'s `MetricSet`.

use crate::time::Picos;

/// A time-bucketed series of accumulating samples — the backbone of the
/// paper's IPC and power time-series figures.
///
/// Values added within the same `bucket` (of fixed width) accumulate; the
/// series exposes per-bucket sums and averages.
///
/// # Examples
///
/// ```
/// use sim_core::{stats::TimeSeries, Picos};
///
/// // One bucket per microsecond.
/// let mut ipc = TimeSeries::new(Picos::from_us(1));
/// ipc.add(Picos::from_ns(100), 2.0);
/// ipc.add(Picos::from_ns(900), 2.0);
/// ipc.add(Picos::from_us(1) + Picos::from_ns(1), 1.0);
/// assert_eq!(ipc.buckets().len(), 2);
/// assert_eq!(ipc.buckets()[0].1, 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_width: Picos,
    /// Sparse map from bucket index to accumulated value, kept sorted.
    data: Vec<(u64, f64)>,
}

impl util::json::ToJson for TimeSeries {
    fn to_json(&self) -> util::json::Json {
        util::json::Json::Obj(vec![
            ("bucket_width".to_string(), self.bucket_width.to_json()),
            ("data".to_string(), self.data.to_json()),
        ])
    }
}

/// Decodes what [`TimeSeries::new`] and [`TimeSeries::add`] can build: a
/// non-zero bucket width and buckets in ascending order.
impl util::json::FromJson for TimeSeries {
    fn from_json(v: &util::json::Json) -> Result<Self, util::json::JsonError> {
        use util::json::JsonError;
        let ctx = |e: JsonError| e.context("TimeSeries");
        let mut f = util::json::Fields::new(v);
        let bucket_width: Picos = f.get("bucket_width").map_err(ctx)?;
        let data: Vec<(u64, f64)> = f.get("data").map_err(ctx)?;
        f.finish().map_err(ctx)?;
        if bucket_width.is_zero() {
            return Err(ctx(JsonError::new("bucket_width must be non-zero")));
        }
        if data.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(ctx(JsonError::new("data buckets must ascend")));
        }
        Ok(TimeSeries { bucket_width, data })
    }
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: Picos) -> Self {
        Self::with_capacity(bucket_width, 0)
    }

    /// Like [`TimeSeries::new`] with room for `capacity` non-empty
    /// buckets up front — the execution engine, which sums its IPC and
    /// power buckets as integers, sizes its series exactly this way
    /// when it converts them.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn with_capacity(bucket_width: Picos, capacity: usize) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be non-zero");
        TimeSeries {
            bucket_width,
            data: Vec::with_capacity(capacity),
        }
    }

    /// Bucket width.
    pub fn bucket_width(&self) -> Picos {
        self.bucket_width
    }

    /// Accumulates `value` into the bucket containing instant `at`.
    #[inline]
    pub fn add(&mut self, at: Picos, value: f64) {
        // Producers overwhelmingly append in near time order and land
        // in the tail bucket, or in the one before it when interleaved
        // samples straddle a bucket boundary. Test those two buckets'
        // time ranges first — it avoids the 64-bit division. The
        // execution engine no longer adds per step: it sums each
        // bucket as an integer and adds it here once, in bucket order.
        // The analytic tier still adds f64 samples one by one.
        let ps = at.as_ps();
        let width = self.bucket_width.as_ps();
        let n = self.data.len();
        if n > 0 {
            let start = self.data[n - 1].0 * width;
            if ps >= start {
                if ps - start < width {
                    self.data[n - 1].1 += value;
                    return;
                }
            } else if n > 1 {
                let start = self.data[n - 2].0 * width;
                if ps >= start && ps - start < width {
                    self.data[n - 2].1 += value;
                    return;
                }
            }
        }
        let idx = ps / width;
        match self.data.last_mut() {
            Some(&mut (last, _)) if last < idx => self.data.push((idx, value)),
            None => self.data.push((idx, value)),
            _ => match self.data.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.data[pos].1 += value,
                Err(pos) => self.data.insert(pos, (idx, value)),
            },
        }
    }

    /// The non-empty buckets as `(bucket_start_time, accumulated_value)`,
    /// in time order.
    pub fn buckets(&self) -> Vec<(Picos, f64)> {
        self.data
            .iter()
            .map(|&(i, v)| (self.bucket_width * i, v))
            .collect()
    }

    /// A dense rendering over `[0, horizon)` with zeros for empty buckets —
    /// what the reproduced figures sample.
    pub fn dense(&self, horizon: Picos) -> Vec<f64> {
        let n = horizon.as_ps().div_ceil(self.bucket_width.as_ps()) as usize;
        let mut out = vec![0.0; n];
        for &(i, v) in &self.data {
            if (i as usize) < n {
                out[i as usize] = v;
            }
        }
        out
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.data.iter().map(|&(_, v)| v).sum()
    }

    /// Highest non-empty bucket end time (zero when empty).
    pub fn horizon(&self) -> Picos {
        self.data
            .last()
            .map(|&(i, _)| self.bucket_width * (i + 1))
            .unwrap_or(Picos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeseries_buckets_accumulate() {
        let mut ts = TimeSeries::new(Picos::from_ns(10));
        ts.add(Picos::from_ns(1), 1.0);
        ts.add(Picos::from_ns(9), 1.0);
        ts.add(Picos::from_ns(10), 5.0);
        ts.add(Picos::from_ns(35), 7.0);
        let b = ts.buckets();
        assert_eq!(
            b,
            vec![
                (Picos::from_ns(0), 2.0),
                (Picos::from_ns(10), 5.0),
                (Picos::from_ns(30), 7.0)
            ]
        );
        assert_eq!(ts.total(), 14.0);
        assert_eq!(ts.horizon(), Picos::from_ns(40));
    }

    #[test]
    fn timeseries_dense_fills_gaps() {
        let mut ts = TimeSeries::new(Picos::from_ns(10));
        ts.add(Picos::from_ns(25), 3.0);
        let d = ts.dense(Picos::from_ns(50));
        assert_eq!(d, vec![0.0, 0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn timeseries_out_of_order_adds() {
        let mut ts = TimeSeries::new(Picos::from_ns(10));
        ts.add(Picos::from_ns(95), 1.0);
        ts.add(Picos::from_ns(5), 1.0);
        ts.add(Picos::from_ns(45), 1.0);
        let b = ts.buckets();
        assert_eq!(b.len(), 3);
        assert!(b.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn prop_series_equals_an_ordered_map_fold() {
        // Every bucket must receive exactly its own adds, in call order,
        // whichever lookup path finds it: the f64 sums are compared bit
        // for bit against a plain map fold over the same add sequence.
        use std::collections::btree_map::{BTreeMap, Entry};
        util::for_each_case!(64, |rng| {
            let width = rng.range_u64(1, 50_000);
            let mut series = TimeSeries::new(Picos::from_ps(width));
            let mut reference: BTreeMap<u64, f64> = BTreeMap::new();
            let mut t = rng.range_u64(0, 20 * width);
            for _ in 0..rng.range_u64(0, 500) {
                t = match rng.range_u64(0, 4) {
                    // In order.
                    0 => t + rng.range_u64(0, 2 * width),
                    // Out of order, anywhere.
                    1 => rng.range_u64(0, 40 * width),
                    // Back and forth across the tail bucket's lower edge,
                    // as interleaved agents straddling a boundary do.
                    2 => {
                        let edge = series.horizon().as_ps().saturating_sub(width);
                        if rng.chance(0.5) {
                            edge.saturating_sub(rng.range_u64(1, width))
                        } else {
                            edge + rng.range_u64(0, width - 1)
                        }
                    }
                    // Exactly on a bucket edge near the tail.
                    3 => {
                        let tail = series.horizon().as_ps() / width;
                        rng.range_u64(tail.saturating_sub(4), tail + 1) * width
                    }
                    // Straight back a little.
                    _ => t.saturating_sub(rng.range_u64(0, width)),
                };
                let v = rng.range_f64(-1.0, 1.0) * 10f64.powi(rng.range_u64(0, 12) as i32 - 6);
                series.add(Picos::from_ps(t), v);
                match reference.entry(t / width) {
                    Entry::Vacant(e) => {
                        e.insert(v);
                    }
                    Entry::Occupied(mut e) => *e.get_mut() += v,
                }
            }
            let got: Vec<(u64, u64)> = series
                .buckets()
                .iter()
                .map(|&(start, v)| (start.as_ps() / width, v.to_bits()))
                .collect();
            let want: Vec<(u64, u64)> = reference.iter().map(|(&i, v)| (i, v.to_bits())).collect();
            assert_eq!(got, want);
        });
    }

    #[test]
    #[should_panic(expected = "bucket width must be non-zero")]
    fn zero_bucket_width_rejected() {
        let _ = TimeSeries::new(Picos::ZERO);
    }

    #[test]
    fn decoding_refuses_what_new_and_add_cannot_build() {
        use util::json::{FromJson, ToJson};
        let mut ts = TimeSeries::new(Picos::from_ns(10));
        ts.add(Picos::from_ns(5), 1.0);
        ts.add(Picos::from_ns(25), 2.0);
        let text = ts.to_json().render(false);
        assert_eq!(TimeSeries::from_json_str(&text), Ok(ts));
        for (forged, needle) in [
            (
                text.replace("\"bucket_width\":10000", "\"bucket_width\":0"),
                "bucket_width must be non-zero",
            ),
            (
                text.replace("[0,1.0],[2,2.0]", "[2,2.0],[0,1.0]"),
                "data buckets must ascend",
            ),
            (
                text.replace("[0,1.0],[2,2.0]", "[2,1.0],[2,2.0]"),
                "data buckets must ascend",
            ),
        ] {
            assert_ne!(forged, text);
            let err = TimeSeries::from_json_str(&forged).expect_err("refused");
            assert!(err.to_string().contains(needle), "{forged}: {err}");
        }
    }
}
