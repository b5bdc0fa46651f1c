//! Discrete-event timeline for the segmented, overlapped SOI pipeline
//! (§6.1's multi-segment communication/computation overlap).
//!
//! Two resources per rank: the NIC (exchanges serialize on it) and the
//! cores (recovery FFTs serialize on them). With `S` segments,
//! exchange `i` can start once the NIC is free; recovery `i` can start
//! once exchange `i` has completed *and* the cores are free. The
//! convolution and the block DFTs precede everything (they feed every
//! segment). This upgrades the closed-form
//! [`crate::ClusterModel::soi_time_overlapped`] estimate to an event
//! simulation that also reports the schedule itself — regenerated by the
//! `overlap` bench binary as a Fig 12-style diagram.

/// One scheduled interval on a rank.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// `"conv+segfft"`, `"exchange[i]"` or `"recover[i]"`.
    pub label: String,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// The simulated per-rank schedule.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// All intervals in start order.
    pub events: Vec<Event>,
    /// Completion time of the last recovery.
    pub total: f64,
    /// Time the cores sat idle waiting on the NIC (the *exposed*
    /// communication).
    pub exposed_mpi: f64,
}

/// A timeline lookup that could not be satisfied — typed, so schedule
/// consumers (diagram renderers, overlap analyses) report a malformed
/// timeline instead of aborting.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// No event with the requested label.
    MissingEvent {
        /// The label that was asked for.
        label: String,
    },
    /// A pipeline was requested with zero segments.
    NoSegments,
    /// An ASCII rendering narrower than the two-lane diagram can express.
    WidthTooSmall {
        /// The requested width.
        width: usize,
        /// The minimum supported width.
        min: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::MissingEvent { label } => {
                write!(f, "timeline has no event labelled {label:?}")
            }
            ScheduleError::NoSegments => {
                write!(f, "pipeline needs at least one segment")
            }
            ScheduleError::WidthTooSmall { width, min } => {
                write!(f, "ascii width {width} is below the minimum {min}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Timeline {
    /// The event labelled `label`, with a typed miss.
    pub fn event(&self, label: &str) -> Result<&Event, ScheduleError> {
        self.events
            .iter()
            .find(|e| e.label == label)
            .ok_or_else(|| ScheduleError::MissingEvent {
                label: label.to_string(),
            })
    }

    /// Segment `i`'s all-to-all interval (`exchange[i]`).
    pub fn exchange(&self, i: u32) -> Result<&Event, ScheduleError> {
        self.event(&format!("exchange[{i}]"))
    }

    /// Segment `i`'s recovery-FFT interval (`recover[i]`).
    pub fn recover(&self, i: u32) -> Result<&Event, ScheduleError> {
        self.event(&format!("recover[{i}]"))
    }
}

/// Simulates the segmented pipeline.
///
/// * `preamble_s` — convolution + block-DFT time (runs first, unoverlapped),
/// * `per_seg_mpi_s` — one segment's share of the all-to-all,
/// * `per_seg_fft_s` — one segment's recovery FFT (+demodulation),
/// * `segments` — S ≥ 1.
///
/// # Panics
/// Panics when `segments == 0`; use [`try_overlapped_timeline`] for
/// segment counts derived from untrusted (e.g. tuner candidate) input.
pub fn overlapped_timeline(
    preamble_s: f64,
    per_seg_mpi_s: f64,
    per_seg_fft_s: f64,
    segments: u32,
) -> Timeline {
    match try_overlapped_timeline(preamble_s, per_seg_mpi_s, per_seg_fft_s, segments) {
        Ok(t) => t,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible twin of [`overlapped_timeline`]: zero segments is a typed
/// [`ScheduleError::NoSegments`] instead of a panic.
pub fn try_overlapped_timeline(
    preamble_s: f64,
    per_seg_mpi_s: f64,
    per_seg_fft_s: f64,
    segments: u32,
) -> Result<Timeline, ScheduleError> {
    if segments == 0 {
        return Err(ScheduleError::NoSegments);
    }
    let mut events = Vec::with_capacity(2 * segments as usize + 1);
    events.push(Event {
        label: "conv+segfft".into(),
        start: 0.0,
        end: preamble_s,
    });

    let mut nic_free = preamble_s;
    let mut cores_free = preamble_s;
    let mut exposed = 0.0;
    for i in 0..segments {
        let ex_start = nic_free;
        let ex_end = ex_start + per_seg_mpi_s;
        events.push(Event {
            label: format!("exchange[{i}]"),
            start: ex_start,
            end: ex_end,
        });
        nic_free = ex_end;

        let rc_start = ex_end.max(cores_free);
        // Core idle time between the previous compute and this recovery is
        // exposed communication.
        exposed += rc_start - cores_free;
        let rc_end = rc_start + per_seg_fft_s;
        events.push(Event {
            label: format!("recover[{i}]"),
            start: rc_start,
            end: rc_end,
        });
        cores_free = rc_end;
    }
    Ok(Timeline {
        total: cores_free.max(nic_free),
        exposed_mpi: exposed,
        events,
    })
}

impl Timeline {
    /// Renders the schedule as an ASCII two-lane (NIC / cores) diagram.
    ///
    /// # Panics
    /// Panics when `width < 10`; use [`Timeline::try_ascii`] for widths
    /// derived from untrusted input (terminal probes, config files).
    pub fn ascii(&self, width: usize) -> String {
        match self.try_ascii(width) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`Timeline::ascii`]: a width below 10 columns is a
    /// typed [`ScheduleError::WidthTooSmall`] instead of a panic.
    pub fn try_ascii(&self, width: usize) -> Result<String, ScheduleError> {
        if width < 10 {
            return Err(ScheduleError::WidthTooSmall { width, min: 10 });
        }
        let total = self.total.max(1e-300);
        let mut nic = vec![b' '; width];
        let mut cores = vec![b' '; width];
        for e in &self.events {
            let lo = ((e.start / total) * width as f64) as usize;
            let hi = (((e.end / total) * width as f64) as usize).min(width);
            let (lane, ch) = if e.label.starts_with("exchange") {
                (&mut nic, b'M')
            } else if e.label.starts_with("recover") {
                (&mut cores, b'F')
            } else {
                (&mut cores, b'C')
            };
            for c in lane.iter_mut().take(hi).skip(lo) {
                *c = ch;
            }
        }
        Ok(format!(
            "NIC   |{}|\ncores |{}|\n(C = conv+block DFTs, M = exchange, F = recovery FFT)\n",
            String::from_utf8_lossy(&nic),
            String::from_utf8_lossy(&cores)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_segment_is_fully_serial() {
        let t = overlapped_timeline(1.0, 0.5, 0.25, 1);
        assert!((t.total - 1.75).abs() < 1e-12);
        assert!((t.exposed_mpi - 0.5).abs() < 1e-12);
        assert_eq!(t.events.len(), 3);
    }

    #[test]
    fn comm_bound_pipeline_hides_all_but_exposes_nic() {
        // MPI per segment ≫ FFT per segment: total ≈ preamble + S·mpi +
        // one fft tail.
        let (pre, mpi, fft, s) = (1.0, 1.0, 0.1, 4);
        let t = overlapped_timeline(pre, mpi, fft, s);
        assert!(
            (t.total - (pre + 4.0 * mpi + fft)).abs() < 1e-12,
            "{}",
            t.total
        );
        // Exposed = total − preamble − S·fft.
        let expect_exposed = t.total - pre - 4.0 * fft;
        assert!((t.exposed_mpi - expect_exposed).abs() < 1e-12);
    }

    #[test]
    fn compute_bound_pipeline_exposes_only_first_exchange() {
        // FFT per segment ≫ MPI per segment: only exchange[0] is exposed.
        let (pre, mpi, fft, s) = (1.0, 0.1, 1.0, 8);
        let t = overlapped_timeline(pre, mpi, fft, s);
        assert!((t.exposed_mpi - mpi).abs() < 1e-12, "{}", t.exposed_mpi);
        assert!((t.total - (pre + mpi + 8.0 * fft)).abs() < 1e-12);
    }

    #[test]
    fn more_segments_never_slower() {
        let mut prev = f64::INFINITY;
        for s in [1u32, 2, 4, 8, 16] {
            // Fixed total work, split across segments.
            let t = overlapped_timeline(1.0, 2.0 / s as f64, 1.0 / s as f64, s);
            assert!(t.total <= prev + 1e-12, "S={s}: {} > {prev}", t.total);
            prev = t.total;
        }
    }

    #[test]
    fn events_are_consistent() -> Result<(), ScheduleError> {
        let t = overlapped_timeline(0.5, 0.3, 0.2, 3);
        for e in &t.events {
            assert!(e.end >= e.start);
            assert!(e.end <= t.total + 1e-12);
        }
        // NIC events back-to-back.
        let ex: Vec<&Event> = t
            .events
            .iter()
            .filter(|e| e.label.starts_with("exchange"))
            .collect();
        for pair in ex.windows(2) {
            assert!((pair[1].start - pair[0].end).abs() < 1e-12);
        }
        // Recoveries never precede their exchanges.
        for i in 0..3 {
            let e = t.exchange(i)?;
            let r = t.recover(i)?;
            assert!(r.start >= e.end - 1e-12);
        }
        // A label past the last segment is a typed miss, not a panic.
        assert_eq!(
            t.exchange(3),
            Err(ScheduleError::MissingEvent {
                label: "exchange[3]".into()
            })
        );
        Ok(())
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert!(matches!(
            try_overlapped_timeline(1.0, 0.5, 0.25, 0),
            Err(ScheduleError::NoSegments)
        ));
        let t = overlapped_timeline(1.0, 0.5, 0.25, 2);
        assert_eq!(
            t.try_ascii(3).unwrap_err(),
            ScheduleError::WidthTooSmall { width: 3, min: 10 }
        );
        // The typed errors render.
        assert!(ScheduleError::NoSegments.to_string().contains("segment"));
    }

    #[test]
    fn ascii_renders_two_lanes() {
        let t = overlapped_timeline(1.0, 0.5, 0.5, 2);
        let s = t.ascii(40);
        assert!(s.contains("NIC"));
        assert!(s.contains("cores"));
        assert!(s.contains('M') && s.contains('F') && s.contains('C'));
    }
}
