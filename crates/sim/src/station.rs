//! A reusable per-worker array station.
//!
//! The serving runtime (`sia-runtime`) keeps a pool of persistent worker
//! threads, each owning the array hardware it simulates for its whole
//! lifetime.  [`ArrayStation`] is that owned state: one hexagonal and one
//! linear array of the same size `w`, **plus one persistent run workspace
//! per array** ([`HexScratch`] / [`LinearScratch`]) and cumulative usage
//! counters that survive across jobs — the per-worker engine counters in
//! the farm's snapshots come straight from here.
//!
//! The station therefore adds three things on top of the raw arrays:
//! *identity* (a worker never re-creates its arrays per job), *steady-state
//! reuse* (every job served through [`ArrayStation::run_hex`] /
//! [`ArrayStation::run_mv`] reuses the same warm buffers, so the serving
//! hot path performs **no heap allocation** after warm-up), and
//! *accounting* (every array step it ever executed is attributed to it —
//! structurally, because the runs themselves go through the station).

use crate::{HexArray, HexJob, HexScratch, LinearArray, LinearScratch, MvStream, SimError};
use sia_matrix::Scalar;

/// Cumulative usage counters of one station, suitable for utilization
/// reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StationStats {
    /// Completed runs on the hexagonal array.
    pub hex_runs: usize,
    /// Total array steps executed by the hexagonal array.
    pub hex_cycles: usize,
    /// Completed runs on the linear array.
    pub linear_runs: usize,
    /// Total array steps executed by the linear array.
    pub linear_cycles: usize,
    /// Idle cycles the hexagonal engine fast-forwarded over instead of
    /// simulating (event-driven cycle skipping), counted once per array
    /// pass.  Billed cycles are unaffected; this measures simulation work
    /// saved.
    pub hex_skipped_cycles: usize,
    /// Idle cycles the linear engine fast-forwarded over, counted once per
    /// array pass.
    pub linear_skipped_cycles: usize,
}

impl StationStats {
    /// Total array steps across both arrays.
    pub fn total_cycles(&self) -> usize {
        self.hex_cycles + self.linear_cycles
    }

    /// Total completed runs across both arrays.
    pub fn total_runs(&self) -> usize {
        self.hex_runs + self.linear_runs
    }

    /// Total idle cycles both engines skipped instead of simulating.
    pub fn total_skipped_cycles(&self) -> usize {
        self.hex_skipped_cycles + self.linear_skipped_cycles
    }
}

/// One worker's persistent array state: a `w × w` hexagonal array and a
/// `w`-cell linear array with their run workspaces, created once and reused
/// for every job the worker serves, with cumulative step accounting.
///
/// The scalar type parameter fixes the element type the workspaces hold;
/// the serving runtime uses the default, `f64`.
#[derive(Debug, Clone)]
pub struct ArrayStation<T: Scalar = f64> {
    w: usize,
    hex: HexArray,
    linear: LinearArray,
    hex_scratch: HexScratch<T>,
    linear_scratch: LinearScratch<T>,
    stats: StationStats,
}

impl<T: Scalar> ArrayStation<T> {
    /// Creates a station whose arrays have size `w`.  The workspaces start
    /// empty and grow to steady-state capacity over the first jobs served.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroArraySize`] if `w == 0`.
    pub fn new(w: usize) -> Result<Self, SimError> {
        Ok(ArrayStation {
            w,
            hex: HexArray::new(w)?,
            linear: LinearArray::new(w)?,
            hex_scratch: HexScratch::new(),
            linear_scratch: LinearScratch::new(),
            stats: StationStats::default(),
        })
    }

    /// Array size `w` shared by both arrays.
    pub fn size(&self) -> usize {
        self.w
    }

    /// The station's hexagonal array (matrix–matrix jobs).
    pub fn hex(&self) -> &HexArray {
        &self.hex
    }

    /// The station's linear array (matrix–vector jobs).
    pub fn linear(&self) -> &LinearArray {
        &self.linear
    }

    /// Runs one job through the station's hexagonal array, reusing the
    /// station's persistent workspace, and records the executed steps in
    /// the cumulative counters.  Returns the warm workspace for result
    /// extraction; the serving hot path through here is allocation-free in
    /// steady state.
    ///
    /// # Errors
    ///
    /// The errors of [`HexArray::run_lanes_with`]; failed runs record
    /// nothing.
    pub fn run_hex(&mut self, job: &HexJob<T>) -> Result<&HexScratch<T>, SimError> {
        self.run_hex_lanes(std::slice::from_ref(job))
    }

    /// Runs one or two interleaved streams through the station's linear
    /// array, reusing the station's persistent workspace, and records the
    /// executed steps in the cumulative counters.
    ///
    /// # Errors
    ///
    /// The errors of [`LinearArray::run_lanes_with`]; failed runs record
    /// nothing.
    pub fn run_mv(&mut self, streams: &[MvStream<T>]) -> Result<&LinearScratch<T>, SimError> {
        self.run_mv_lanes(std::slice::from_ref(&streams))
    }

    /// Runs a batch of same-shape matrix–matrix jobs in one lane-parallel
    /// array pass (one value lane per job), reusing the station's persistent
    /// workspace.  Each lane's results are bit-identical to a solo
    /// [`ArrayStation::run_hex`] of that job, and every lane is billed the
    /// pass's full cycle count — exactly what the jobs would each have cost
    /// sequentially, so the closed-form cost model is unchanged.
    ///
    /// # Errors
    ///
    /// The errors of [`HexArray::run_lanes_with`]; failed runs record
    /// nothing.
    pub fn run_hex_lanes(&mut self, jobs: &[HexJob<T>]) -> Result<&HexScratch<T>, SimError> {
        self.hex.run_lanes_with(jobs, &mut self.hex_scratch)?;
        self.stats.hex_runs += jobs.len();
        self.stats.hex_cycles += jobs.len() * self.hex_scratch.cycles();
        self.stats.hex_skipped_cycles += self.hex_scratch.skipped_cycles();
        Ok(&self.hex_scratch)
    }

    /// Runs a batch of same-shape matrix–vector jobs (each one or two
    /// interleaved streams) in one lane-parallel array pass, reusing the
    /// station's persistent workspace.  The lane-billing convention matches
    /// [`ArrayStation::run_hex_lanes`].
    ///
    /// # Errors
    ///
    /// The errors of [`LinearArray::run_lanes_with`]; failed runs record
    /// nothing.
    pub fn run_mv_lanes<S: AsRef<[MvStream<T>]>>(
        &mut self,
        jobs: &[S],
    ) -> Result<&LinearScratch<T>, SimError> {
        self.linear.run_lanes_with(jobs, &mut self.linear_scratch)?;
        self.stats.linear_runs += jobs.len();
        self.stats.linear_cycles += jobs.len() * self.linear_scratch.cycles();
        self.stats.linear_skipped_cycles += self.linear_scratch.skipped_cycles();
        Ok(&self.linear_scratch)
    }

    /// Records a completed hexagonal-array run of the given step count
    /// (work executed outside [`ArrayStation::run_hex`] that should still be
    /// attributed to this station).
    pub fn record_hex(&mut self, cycles: usize) {
        self.stats.hex_runs += 1;
        self.stats.hex_cycles += cycles;
    }

    /// Records a completed linear-array run of the given step count
    /// (work executed outside [`ArrayStation::run_mv`] that should still be
    /// attributed to this station).
    pub fn record_linear(&mut self, cycles: usize) {
        self.stats.linear_runs += 1;
        self.stats.linear_cycles += cycles;
    }

    /// Cumulative usage counters since the station was created.
    pub fn stats(&self) -> StationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::{BandMatrix, DenseMatrix};

    #[test]
    fn station_accumulates_run_statistics() {
        let mut station = ArrayStation::<f64>::new(3).unwrap();
        assert_eq!(station.size(), 3);
        assert_eq!(station.hex().size(), 3);
        assert_eq!(station.linear().size(), 3);
        station.record_hex(100);
        station.record_hex(50);
        station.record_linear(25);
        let stats = station.stats();
        assert_eq!(stats.hex_runs, 2);
        assert_eq!(stats.hex_cycles, 150);
        assert_eq!(stats.linear_runs, 1);
        assert_eq!(stats.linear_cycles, 25);
        assert_eq!(stats.total_cycles(), 175);
        assert_eq!(stats.total_runs(), 3);
    }

    #[test]
    fn station_runs_attribute_their_steps_structurally() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();

        // Hex: a bidiagonal product.
        let da = DenseMatrix::from_fn(4, 4, |i, j| if j >= i && j < i + w { 1 } else { 0 });
        let db = DenseMatrix::from_fn(4, 4, |i, j| if i >= j && i < j + w { 2 } else { 0 });
        let job = HexJob::product(
            BandMatrix::try_from_dense(&da, 0, w - 1).unwrap(),
            BandMatrix::try_from_dense(&db, w - 1, 0).unwrap(),
        );
        let hex_cycles = station.run_hex(&job).unwrap().cycles();
        assert_eq!(hex_cycles, station.hex().run(&job).unwrap().cycles);

        // Linear: a plain band stream on the same station.
        let rows = 3;
        let dense =
            DenseMatrix::from_fn(
                rows,
                rows + w - 1,
                |i, j| if j >= i && j < i + w { 1 } else { 0 },
            );
        let stream = MvStream {
            band: BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap().into(),
            x: vec![1; rows + w - 1],
            y_injections: vec![crate::YInjection::Value(0); rows],
        };
        let linear_cycles = station
            .run_mv(std::slice::from_ref(&stream))
            .unwrap()
            .cycles();

        let stats = station.stats();
        assert_eq!(stats.hex_runs, 1);
        assert_eq!(stats.hex_cycles, hex_cycles);
        assert_eq!(stats.linear_runs, 1);
        assert_eq!(stats.linear_cycles, linear_cycles);
    }

    #[test]
    fn failed_runs_record_nothing() {
        let mut station = ArrayStation::<i64>::new(2).unwrap();
        // Wrong band profile: rejected before anything executes.
        let bad = HexJob::product(
            BandMatrix::<i64>::new(4, 4, 1, 1).unwrap(),
            BandMatrix::<i64>::new(4, 4, 1, 0).unwrap(),
        );
        assert!(station.run_hex(&bad).is_err());
        assert_eq!(station.stats().total_runs(), 0);
    }

    #[test]
    fn zero_array_size_is_rejected() {
        assert_eq!(
            ArrayStation::<f64>::new(0).unwrap_err(),
            SimError::ZeroArraySize
        );
    }
}
