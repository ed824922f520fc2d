//! Operand identity and **resident DBT band caching**.
//!
//! Production traffic against an array farm is repetitive: one model matrix
//! is served against millions of small queries.  The DBT transformation of
//! an operand depends only on `(operand, w)` — nothing in `Â`, `B̂`, a
//! [`DbtByRows`] band or a block-sparse survival plan depends on the *other*
//! operand's values — so the transform cost can be paid **once per operand**
//! instead of once per job.  This module gives operands the identity that
//! makes that safe:
//!
//! * [`OperandRef`] — a dense matrix behind an [`Arc`] plus a stable 64-bit
//!   key (caller-supplied for named model operands, content-hashed
//!   otherwise).  Cloning one is an `Arc` bump; submitting the same operand
//!   twice presents the same key twice.
//! * [`BandKey`] / [`BandRole`] — the cache identity of one transformed
//!   artifact: operand key, role in the computation (the MM left and right
//!   bands differ, and each also depends on the *repetition count* taken
//!   from the other operand's shape), and the array size `w`.
//! * [`BandCache`] — a bounded LRU of resident-band artifacts
//!   backed by a slab pool: same-shape bands have identical storage
//!   layouts, so an evicted band's buffer backs its replacement without a
//!   free/alloc pair ([`build_a_hat_with`]).  MM injection-schedule
//!   templates (shape-only) are kept in a small side table.
//! * `multiply_*_resident_*` — the one serve path per operation, reporting
//!   what each serve staged via [`StagingReport`].  The fresh solvers
//!   ([`crate::multiply_mm`] and friends) are these serves over a
//!   capacity-0 cache, which stages every operand and retains nothing.
//!
//! Staging is priced apart from compute: a staged band costs one cycle per
//! stored band position (`rows × bandwidth` — the bytes that move) and the
//! closed forms [`mm_staging_cycles`] / [`mv_staging_cycles`] /
//! [`sparse_staging_cycles`] predict that cost exactly without building
//! anything, so an admission controller can price a cold operand placement
//! the same way the paper prices compute.  The warm path — both bands
//! resident, no additive term — performs **no heap allocation** from lookup
//! through result extraction ([`multiply_mm_resident_into`]).
//!
//! [`build_a_hat_with`]: crate::build_a_hat_with

use crate::analytic::{MmShape, MvShape};
use crate::mm::MmSchedule;
use crate::mv::{complete_mv_lane, overlap_splittable};
use crate::sparse::{
    build_sparse_resident, serve_sparse_resident, SparseMvOutcome, SparsePlan, SparseResident,
};
use crate::{
    build_a_hat_with, build_b_hat_with, validate_mm_args, validate_mv_args, DbtByRows, DbtError,
    MmOutcome, MvOutcome, MvSchedule,
};
use sia_matrix::{BandMatrix, DenseMatrix, Scalar};
use sia_sim::{ArrayStation, HexJob, MvStream, ResidencyLru, ResidencyStats, SimError};
use std::ops::Deref;
use std::sync::Arc;

/// Maximum number of shape-keyed MM injection-schedule templates a
/// [`BandCache`] keeps (serving traffic uses a handful of shapes).
const PLAN_CAP: usize = 8;

/// Maximum number of evicted band buffers the slab pool retains.
const SLAB_CAP: usize = 8;

/// A dense operand with **identity**: the matrix behind an [`Arc`] plus a
/// stable 64-bit key.
///
/// Two constructors, mirroring the two ways serving traffic names data:
///
/// * [`OperandRef::named`] — the caller supplies the key (a model id, a
///   tenant-scoped handle).  Cheap, and the idiom for "one model matrix,
///   millions of queries".
/// * [`OperandRef::content_hashed`] (also `From<DenseMatrix>`) — the key is
///   a deterministic FNV-1a fingerprint of the dimensions and element bits,
///   so structurally equal matrices converge on the same cache entries with
///   no caller cooperation.
///
/// Cloning is an `Arc` bump; [`OperandRef`] dereferences to its matrix.
/// Keys only establish *cache identity* — the resident serve paths never
/// trust a key beyond co-locating artifacts, so a key collision can cost
/// correctness only if the caller names two different matrices identically.
#[derive(Debug, Clone)]
pub struct OperandRef<T: Scalar = f64> {
    key: u64,
    data: Arc<DenseMatrix<T>>,
}

impl<T: Scalar> OperandRef<T> {
    /// Wraps `data` under a caller-supplied key.
    pub fn named(key: u64, data: impl Into<Arc<DenseMatrix<T>>>) -> Self {
        OperandRef {
            key,
            data: data.into(),
        }
    }

    /// Wraps `data` under a deterministic content fingerprint (FNV-1a over
    /// the dimensions and every element's [`Scalar::key_bits`]).
    pub fn content_hashed(data: impl Into<Arc<DenseMatrix<T>>>) -> Self {
        let data = data.into();
        let key = content_key(&data);
        OperandRef { key, data }
    }

    /// The operand's cache key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The matrix itself.
    pub fn matrix(&self) -> &DenseMatrix<T> {
        &self.data
    }

    /// The shared handle to the matrix.
    pub fn shared(&self) -> &Arc<DenseMatrix<T>> {
        &self.data
    }

    /// The operand as the cache looks it up.
    pub(crate) fn keyed(&self) -> Keyed<'_, T> {
        (self.key, &self.data)
    }
}

/// An operand as [`BandCache`] looks it up: its key and the matrix,
/// borrowed.  Transient callers — the `multiply_*` wrappers and the `ext`
/// strip products — pass [`transient`] operands to a capacity-0 cache, so
/// they need no [`OperandRef`], no [`Arc`] and no clone.
pub(crate) type Keyed<'a, T> = (u64, &'a DenseMatrix<T>);

/// A matrix served once: the key is never retained, because a capacity-0
/// cache stores nothing.
pub(crate) fn transient<T: Scalar>(matrix: &DenseMatrix<T>) -> Keyed<'_, T> {
    (0, matrix)
}

impl<T: Scalar> Deref for OperandRef<T> {
    type Target = DenseMatrix<T>;

    fn deref(&self) -> &DenseMatrix<T> {
        &self.data
    }
}

impl<T: Scalar> From<DenseMatrix<T>> for OperandRef<T> {
    fn from(m: DenseMatrix<T>) -> Self {
        OperandRef::content_hashed(m)
    }
}

impl<T: Scalar> From<Arc<DenseMatrix<T>>> for OperandRef<T> {
    fn from(m: Arc<DenseMatrix<T>>) -> Self {
        OperandRef::content_hashed(m)
    }
}

/// Deterministic FNV-1a fingerprint of a matrix's shape and element bits.
fn content_key<T: Scalar>(m: &DenseMatrix<T>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    h = (h ^ m.rows() as u64).wrapping_mul(PRIME);
    h = (h ^ m.cols() as u64).wrapping_mul(PRIME);
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            h = (h ^ m.at(i, j).key_bits()).wrapping_mul(PRIME);
        }
    }
    h
}

/// The role a transformed artifact plays — part of its cache identity,
/// because the same operand transforms differently per role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandRole {
    /// MM left operand band `Â` (repetition count `m̄` comes from `B`).
    MmLeft,
    /// MM right operand band `B̂` (repetition count `n̄` comes from `A`).
    MmRight,
    /// MV band under the simple schedule (one [`DbtByRows`]).
    MvSimple,
    /// MV bands under the overlapped schedule (two [`DbtByRows`] halves).
    MvOverlapped,
    /// Block-sparse shortened band plus survival plan.
    Sparse,
}

/// Cache identity of one resident artifact: which operand, in which role,
/// repeated how often, for which array size.
///
/// `rep` carries the part of the identity that comes from the *other*
/// operand: `Â` juxtaposes `m̄ = ⌈m/w⌉` copies (a property of `B`), `B̂`
/// repeats `n̄` times (a property of `A`).  Two jobs pairing one operand
/// with differently-shaped partners therefore occupy distinct entries, and
/// a hit is guaranteed layout-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BandKey {
    /// The operand's [`OperandRef::key`].
    pub operand: u64,
    /// The artifact's role.
    pub role: BandRole,
    /// Role-specific repetition count (`m̄` for [`BandRole::MmLeft`], `n̄`
    /// for [`BandRole::MmRight`], `0` for the rest).
    pub rep: u32,
    /// Array size the artifact was transformed for.
    pub w: u32,
}

/// One resident artifact (crate-internal: callers go through the
/// `multiply_*_resident_*` entry points).
#[derive(Debug, Clone)]
pub(crate) enum ResidentBand<T: Scalar> {
    /// An MM operand band (`Â` or `B̂`, per the key's role).
    Hat(Arc<BandMatrix<T>>),
    /// The [`DbtByRows`] transformation(s) of an MV operand (one for the
    /// simple schedule, two halves for the overlapped one).
    Mv(Arc<Vec<DbtByRows<T>>>),
    /// The operand-only artifacts of a block-sparse problem.
    Sparse(Arc<SparseResident<T>>),
}

/// What one resident serve staged, hit and displaced — the receipt-level
/// residency accounting.
///
/// `staging_cycles` is the *measured* staging cost of this serve (zero on a
/// full hit); the closed forms below predict the cold cost without building
/// anything.  The fixed-size key arrays exist so the zero-allocation warm
/// path can report without touching the heap (a serve stages at most two
/// bands, hence at most two evictions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagingReport {
    /// Operand artifacts found resident.
    pub hits: u32,
    /// Operand artifacts that had to be staged.
    pub misses: u32,
    /// Artifacts evicted to make room.
    pub evictions: u32,
    /// Modeled cycles spent staging (one per stored band position moved).
    pub staging_cycles: usize,
    /// Operand keys staged by this serve.
    pub staged: [Option<u64>; 2],
    /// Operand keys whose artifacts were evicted by this serve.
    pub evicted: [Option<u64>; 2],
}

impl StagingReport {
    /// `true` when every operand lookup of the serve hit.
    pub fn operand_hit(&self) -> bool {
        self.misses == 0 && self.hits > 0
    }

    fn note_staged(&mut self, key: u64) {
        for slot in &mut self.staged {
            if slot.is_none() {
                *slot = Some(key);
                return;
            }
        }
    }

    fn note_evicted(&mut self, key: u64) {
        for slot in &mut self.evicted {
            if slot.is_none() {
                *slot = Some(key);
                return;
            }
        }
    }
}

/// A bounded per-station cache of resident DBT artifacts with slab-recycled
/// band storage.
///
/// One of these lives next to each [`ArrayStation`] of a serving runtime;
/// capacity `0` disables residency entirely (every serve stages fresh and
/// nothing is retained), which is the control arm of the residency
/// experiment.
#[derive(Debug)]
pub struct BandCache<T: Scalar = f64> {
    w: usize,
    lru: ResidencyLru<BandKey, ResidentBand<T>>,
    /// Shape-keyed MM injection-schedule templates (shape-only, so they are
    /// not operand residency — just memoized schedule construction).
    plans: Vec<(MmShape, Arc<MmSchedule<T>>)>,
    /// Storage buffers of evicted MM bands, recycled into replacements.
    slabs: Vec<Vec<T>>,
}

impl<T: Scalar> BandCache<T> {
    /// Creates a cache for stations of size `w` holding at most `capacity`
    /// resident artifacts.
    pub fn new(w: usize, capacity: usize) -> Self {
        BandCache {
            w,
            lru: ResidencyLru::new(capacity),
            plans: Vec::with_capacity(PLAN_CAP),
            slabs: Vec::with_capacity(SLAB_CAP),
        }
    }

    /// Array size the cache transforms for.
    pub fn array_size(&self) -> usize {
        self.w
    }

    /// Number of resident artifacts.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Configured capacity (`0` = residency disabled).
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Cumulative hit/miss/eviction/staging counters.
    pub fn stats(&self) -> ResidencyStats {
        self.lru.stats()
    }

    /// Number of recycled storage buffers currently pooled.
    pub fn pooled_slabs(&self) -> usize {
        self.slabs.len()
    }

    fn insert(&mut self, key: BandKey, band: ResidentBand<T>, report: &mut StagingReport) {
        if let Some((evicted_key, evicted)) = self.lru.insert(key, band) {
            if evicted_key == key {
                // Same-key replacement (or capacity 0 bounce) — not an
                // eviction; recycle the storage silently.
                self.reclaim(evicted);
                return;
            }
            report.evictions += 1;
            report.note_evicted(evicted_key.operand);
            self.reclaim(evicted);
        }
    }

    /// Recycles an evicted artifact's storage into the slab pool when this
    /// cache held the last reference.
    fn reclaim(&mut self, band: ResidentBand<T>) {
        if let ResidentBand::Hat(arc) = band {
            if self.slabs.len() < SLAB_CAP {
                if let Ok(owned) = Arc::try_unwrap(arc) {
                    self.slabs.push(owned.into_storage());
                }
            }
        }
    }

    /// Looks up (or stages) the MM band of `operand` in `role` for `shape`.
    fn mm_band(
        &mut self,
        role: BandRole,
        (operand, matrix): Keyed<'_, T>,
        shape: MmShape,
        report: &mut StagingReport,
    ) -> Result<Arc<BandMatrix<T>>, DbtError> {
        let rep = match role {
            BandRole::MmLeft => shape.mbar(),
            BandRole::MmRight => shape.nbar(),
            _ => unreachable!("mm_band is only called with MM roles"),
        };
        let key = BandKey {
            operand,
            role,
            rep: rep as u32,
            w: self.w as u32,
        };
        if let Some(ResidentBand::Hat(band)) = self.lru.get(key) {
            report.hits += 1;
            return Ok(Arc::clone(band));
        }
        report.misses += 1;
        let storage = self.slabs.pop().unwrap_or_default();
        let band = match role {
            BandRole::MmLeft => build_a_hat_with(matrix, rep, self.w, storage)?,
            BandRole::MmRight => build_b_hat_with(matrix, rep, self.w, storage)?,
            _ => unreachable!("mm_band is only called with MM roles"),
        };
        let cycles = band.rows() * band.bandwidth();
        self.lru.note_staged(cycles);
        report.staging_cycles += cycles;
        report.note_staged(operand);
        let arc = Arc::new(band);
        self.insert(key, ResidentBand::Hat(Arc::clone(&arc)), report);
        Ok(arc)
    }

    /// Looks up (or stages) the [`DbtByRows`] transformation(s) of an MV
    /// operand for the given effective schedule role.
    fn mv_dbts(
        &mut self,
        role: BandRole,
        (operand, a): Keyed<'_, T>,
        shape: MvShape,
        report: &mut StagingReport,
    ) -> Result<Arc<Vec<DbtByRows<T>>>, DbtError> {
        let key = BandKey {
            operand,
            role,
            rep: 0,
            w: self.w as u32,
        };
        if let Some(ResidentBand::Mv(dbts)) = self.lru.get(key) {
            report.hits += 1;
            return Ok(Arc::clone(dbts));
        }
        report.misses += 1;
        let dbts = if role == BandRole::MvOverlapped {
            // Split at an original block-row boundary (the dotted line of
            // Fig. 2b): the first ⌊n̄/2⌋ block rows form one sub-problem,
            // the rest the other, interleaved in the array's idle cycles.
            let split_rows = (shape.nbar() / 2) * self.w;
            let top = a.submatrix(0, 0, split_rows, a.cols());
            let bottom = a.submatrix(split_rows, 0, a.rows() - split_rows, a.cols());
            vec![
                DbtByRows::new(&top, self.w)?,
                DbtByRows::new(&bottom, self.w)?,
            ]
        } else {
            vec![DbtByRows::new(a, self.w)?]
        };
        let cycles: usize = dbts
            .iter()
            .map(|d| d.band().rows() * d.band().bandwidth())
            .sum();
        self.lru.note_staged(cycles);
        report.staging_cycles += cycles;
        report.note_staged(operand);
        let arc = Arc::new(dbts);
        self.insert(key, ResidentBand::Mv(Arc::clone(&arc)), report);
        Ok(arc)
    }

    /// Looks up (or stages) the block-sparse artifacts of an operand.
    fn sparse(
        &mut self,
        (operand, matrix): Keyed<'_, T>,
        report: &mut StagingReport,
    ) -> Result<Arc<SparseResident<T>>, DbtError> {
        let key = BandKey {
            operand,
            role: BandRole::Sparse,
            rep: 0,
            w: self.w as u32,
        };
        if let Some(ResidentBand::Sparse(resident)) = self.lru.get(key) {
            report.hits += 1;
            return Ok(Arc::clone(resident));
        }
        report.misses += 1;
        let resident = build_sparse_resident(matrix, self.w)?;
        let cycles = resident.band.rows() * resident.band.bandwidth();
        self.lru.note_staged(cycles);
        report.staging_cycles += cycles;
        report.note_staged(operand);
        let arc = Arc::new(resident);
        self.insert(key, ResidentBand::Sparse(Arc::clone(&arc)), report);
        Ok(arc)
    }

    /// The memoized MM injection-schedule template of a shape.
    fn mm_schedule(&mut self, shape: MmShape) -> Result<Arc<MmSchedule<T>>, DbtError> {
        if let Some((_, schedule)) = self.plans.iter().find(|(s, _)| *s == shape) {
            return Ok(Arc::clone(schedule));
        }
        let schedule = Arc::new(MmSchedule::new(shape)?);
        if self.plans.len() >= PLAN_CAP {
            self.plans.remove(0);
        }
        self.plans.push((shape, Arc::clone(&schedule)));
        Ok(schedule)
    }
}

/// Cold staging cost of one MM job's operands: both transformed bands, one
/// cycle per stored position (`2 · (w·p̄n̄m̄ + w − 1) · w`).  A serve that
/// finds one band resident pays half of this; a full hit pays zero.
pub fn mm_staging_cycles(shape: MmShape) -> usize {
    2 * shape.transformed_dim() * shape.w
}

/// Cold staging cost of an MV operand's band(s): `n̄·m̄·w²` stored positions
/// under either schedule (the overlapped halves partition the same rows).
pub fn mv_staging_cycles(shape: MvShape) -> usize {
    shape.nbar() * shape.mbar() * shape.w * shape.w
}

/// Cold staging cost of a block-sparse operand's shortened band:
/// `appended_blocks · w²` stored positions.
pub fn sparse_staging_cycles(plan: &SparsePlan) -> usize {
    plan.appended_blocks() * plan.w * plan.w
}

fn check_cache_w<T: Scalar>(station: &ArrayStation<T>, cache: &BandCache<T>) {
    assert_eq!(
        station.size(),
        cache.array_size(),
        "BandCache was built for a different array size than this station"
    );
}

/// Runs one serve on a new station over a capacity-0 cache and drops the
/// staging report.  A "fresh" solve is a resident solve whose cache keeps
/// nothing, so the `multiply_*` wrappers run exactly the serving code.
pub(crate) fn fresh<T: Scalar, R>(
    w: usize,
    serve: impl FnOnce(&mut ArrayStation<T>, &mut BandCache<T>) -> Result<(R, StagingReport), DbtError>,
) -> Result<R, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    Ok(serve(&mut ArrayStation::new(w)?, &mut BandCache::new(w, 0))?.0)
}

/// One matrix–matrix problem of a lane batch, by reference.
#[derive(Debug, Clone, Copy)]
pub struct MmProblem<'a, T: Scalar> {
    /// Left operand.
    pub a: &'a OperandRef<T>,
    /// Right operand.
    pub b: &'a OperandRef<T>,
    /// Optional additive term `E` of `C = A·B + E`.
    pub e: Option<&'a DenseMatrix<T>>,
}

/// One matrix–vector problem of a lane batch, by reference.
#[derive(Debug, Clone, Copy)]
pub struct MvProblem<'a, T: Scalar> {
    /// The matrix `A`.
    pub a: &'a OperandRef<T>,
    /// The vector `x`.
    pub x: &'a [T],
    /// Optional additive vector `b` of `y = A·x + b`.
    pub b: Option<&'a [T]>,
}

/// Assembles the transformed job of one MM problem from the cache: three
/// `Arc` bumps on a full hit, band builds on misses.
fn mm_job<T: Scalar>(
    cache: &mut BandCache<T>,
    schedule: &MmSchedule<T>,
    a: Keyed<'_, T>,
    b: Keyed<'_, T>,
    e: Option<&DenseMatrix<T>>,
    report: &mut StagingReport,
) -> Result<HexJob<T>, DbtError> {
    Ok(HexJob {
        a: cache.mm_band(BandRole::MmLeft, a, schedule.shape, report)?,
        b: cache.mm_band(BandRole::MmRight, b, schedule.shape, report)?,
        c_injections: schedule.injections_for(e),
    })
}

/// The operands of one MM lane, as the cache looks them up: `A`, `B` and
/// the optional additive term `E`.
pub(crate) type MmLane<'a, T> = (Keyed<'a, T>, Keyed<'a, T>, Option<&'a DenseMatrix<T>>);

/// The operands of one MV lane: `A`, `x` and the optional additive `b`.
pub(crate) type MvLane<'a, T> = (Keyed<'a, T>, &'a [T], Option<&'a [T]>);

/// The solo form of a one-lane pass's result.
pub(crate) fn solo<O>((mut outcomes, reports): (Vec<O>, Vec<StagingReport>)) -> (O, StagingReport) {
    (outcomes.pop().expect("one lane, one outcome"), reports[0])
}

/// The one MM serve path that returns full outcomes: same-shape lanes in
/// lane-parallel passes of at most [`crate::MAX_LANES`], each lane's bands
/// looked up (or staged) in the cache.  A solo serve is a one-lane pass.
pub(crate) fn serve_mm_lanes<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    lanes: &[MmLane<'_, T>],
) -> Result<(Vec<MmOutcome<T>>, Vec<StagingReport>), DbtError> {
    check_cache_w(station, cache);
    let w = station.size();
    let mut outcomes = Vec::with_capacity(lanes.len());
    let mut reports = Vec::with_capacity(lanes.len());
    for chunk in lanes.chunks(crate::MAX_LANES) {
        // Lane mates share one problem shape, so the shape-only schedule
        // (injections and extraction map) serves the whole chunk; only the
        // operand bands and any additive term's literals are per lane.
        let ((a, b, e), rest) = chunk.split_first().expect("chunks are non-empty");
        let shape = validate_mm_args(a.1, b.1, *e, w)?;
        for (lane, (a, b, e)) in rest.iter().enumerate() {
            if validate_mm_args(a.1, b.1, *e, w)? != shape {
                return Err(DbtError::Sim(SimError::LaneMismatch {
                    lane: lane + 1,
                    what: "problem shape",
                }));
            }
        }
        let schedule = cache.mm_schedule(shape)?;
        let mut jobs = Vec::with_capacity(chunk.len());
        for &(a, b, e) in chunk {
            let mut report = StagingReport::default();
            jobs.push(mm_job(cache, &schedule, a, b, e, &mut report)?);
            reports.push(report);
        }
        let scratch = station.run_hex_lanes(&jobs)?;
        // One summary per pass: lanes share the feedback schedule, and the
        // summary's event list is behind an `Arc`, so each copy is O(1).
        let feedback = scratch.feedback_summary();
        for lane in 0..chunk.len() {
            outcomes.push(schedule.complete(scratch, lane, feedback.clone()));
        }
    }
    Ok((outcomes, reports))
}

/// Computes `C = A·B + E` through the station's resident band cache,
/// returning the full outcome plus what the serve staged.
///
/// [`crate::multiply_mm`] is this serve over a capacity-0 cache: a staged
/// band is built by the same constructors, a resident band *is* the band a
/// previous serve built, and simulation/extraction are shared code.
///
/// # Errors
///
/// The errors of [`crate::multiply_mm`].
pub fn multiply_mm_resident_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    a: &OperandRef<T>,
    b: &OperandRef<T>,
    e: Option<&DenseMatrix<T>>,
) -> Result<(MmOutcome<T>, StagingReport), DbtError> {
    serve_mm_lanes(station, cache, &[(a.keyed(), b.keyed(), e)]).map(solo)
}

/// Computes `C = A·B + E` through the resident cache into a caller-provided
/// result matrix, returning the measured cycle count and the staging
/// report.
///
/// This is the **zero-allocation** serve path: when both bands are resident
/// and `e` is `None`, no heap allocation happens between entry and return —
/// the job is three `Arc` bumps, the simulator runs in the station's warm
/// workspace, `out` is reshaped in place ([`DenseMatrix::reset`] reuses its
/// storage), and no feedback summary is materialized.
///
/// # Errors
///
/// The errors of [`crate::multiply_mm`].
pub fn multiply_mm_resident_into<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    a: &OperandRef<T>,
    b: &OperandRef<T>,
    e: Option<&DenseMatrix<T>>,
    out: &mut DenseMatrix<T>,
) -> Result<(usize, StagingReport), DbtError> {
    check_cache_w(station, cache);
    let shape = validate_mm_args(a.matrix(), b.matrix(), e, station.size())?;
    let mut report = StagingReport::default();
    let schedule = cache.mm_schedule(shape)?;
    let job = mm_job(cache, &schedule, a.keyed(), b.keyed(), e, &mut report)?;
    let scratch = station.run_hex(&job)?;
    out.reset(shape.n, shape.m);
    let cycles = schedule.complete_into(scratch, 0, out);
    Ok((cycles, report))
}

/// Computes a batch of **same-shape** `C = A·B + E` products through the
/// resident cache in lane-parallel array passes: up to
/// [`crate::MAX_LANES`] problems share each pass, one value lane per
/// problem, so the pass costs one tape replay instead of `L`.  The serving
/// runtime routes coalesced batches (same-shape by construction) through
/// here.
///
/// Outcomes are bit-identical to per-problem [`crate::multiply_mm`] calls,
/// in problem order, and each problem is billed the pass's full modeled
/// cycle count — identical to its solo cost, so closed-form predictions are
/// unchanged.  Each problem gets its own [`StagingReport`]: lane mates
/// sharing an operand hit what their predecessor lane staged.
///
/// # Errors
///
/// The errors of [`crate::multiply_mm`] per problem, plus
/// [`SimError::LaneMismatch`] (via [`DbtError::Sim`]) if the problems do
/// not all share one shape.
pub fn multiply_mm_resident_lanes_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    problems: &[MmProblem<'_, T>],
) -> Result<(Vec<MmOutcome<T>>, Vec<StagingReport>), DbtError> {
    let lanes: Vec<MmLane<'_, T>> = problems
        .iter()
        .map(|p| (p.a.keyed(), p.b.keyed(), p.e))
        .collect();
    serve_mm_lanes(station, cache, &lanes)
}

/// The one MV serve path, the twin of [`serve_mm_lanes`]: each lane's
/// transformation(s) are looked up (or staged) for the effective schedule
/// and fed that lane's `x` and `b`.  The overlapped schedule's
/// single-block-row fallback is part of the cache role, so a fallback serve
/// and an overlapped serve never share an artifact by accident.
pub(crate) fn serve_mv_lanes<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    lanes: &[MvLane<'_, T>],
    schedule: MvSchedule,
) -> Result<(Vec<MvOutcome<T>>, Vec<StagingReport>), DbtError> {
    check_cache_w(station, cache);
    let mut outcomes = Vec::with_capacity(lanes.len());
    let mut reports = Vec::with_capacity(lanes.len());
    for chunk in lanes.chunks(crate::MAX_LANES) {
        let mut staged = Vec::with_capacity(chunk.len());
        for &(a, x, b) in chunk {
            let shape = validate_mv_args(a.1, x, b, cache.w)?;
            let role = if schedule == MvSchedule::Overlapped && overlap_splittable(shape) {
                BandRole::MvOverlapped
            } else {
                BandRole::MvSimple
            };
            let mut report = StagingReport::default();
            let dbts = cache.mv_dbts(role, a, shape, &mut report)?;
            reports.push(report);
            // Each transformation covers a contiguous run of A's rows and
            // is fed the matching slice of `b`.
            let mut row = 0;
            let streams = dbts
                .iter()
                .map(|dbt| {
                    let rows = dbt.original_shape().0;
                    let b_part = b.map(|b| &b[row..row + rows]);
                    row += rows;
                    Ok(MvStream {
                        band: dbt.band_shared(),
                        x: dbt.transform_x(x)?,
                        y_injections: dbt.y_injections(b_part)?,
                    })
                })
                .collect::<Result<Vec<_>, DbtError>>()?;
            staged.push((shape, dbts, streams));
        }
        let jobs: Vec<&[MvStream<T>]> = staged.iter().map(|(_, _, s)| s.as_slice()).collect();
        let scratch = station.run_mv_lanes(&jobs)?;
        for (lane, (shape, dbts, _)) in staged.iter().enumerate() {
            outcomes.push(complete_mv_lane(dbts, *shape, schedule, scratch, lane)?);
        }
    }
    Ok((outcomes, reports))
}

/// Computes `y = A·x + b` through the station's resident band cache.
///
/// [`crate::multiply_mv`] is this serve over a capacity-0 cache, for both
/// schedules and the overlapped schedule's single-block-row fallback.
///
/// # Errors
///
/// The errors of [`crate::multiply_mv`].
pub fn multiply_mv_resident_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    a: &OperandRef<T>,
    x: &[T],
    b: Option<&[T]>,
    schedule: MvSchedule,
) -> Result<(MvOutcome<T>, StagingReport), DbtError> {
    serve_mv_lanes(station, cache, &[(a.keyed(), x, b)], schedule).map(solo)
}

/// Computes a batch of **same-shape** `y = A·x + b` products through the
/// resident cache in lane-parallel array passes — the matrix–vector twin
/// of [`multiply_mm_resident_lanes_on`], with the same billing, ordering
/// and per-problem [`StagingReport`]s.
///
/// # Errors
///
/// The errors of [`crate::multiply_mv`] per problem, plus
/// [`SimError::LaneMismatch`] (via [`DbtError::Sim`]) if the problems do
/// not all share one shape.
pub fn multiply_mv_resident_lanes_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    problems: &[MvProblem<'_, T>],
    schedule: MvSchedule,
) -> Result<(Vec<MvOutcome<T>>, Vec<StagingReport>), DbtError> {
    let lanes: Vec<MvLane<'_, T>> = problems.iter().map(|p| (p.a.keyed(), p.x, p.b)).collect();
    serve_mv_lanes(station, cache, &lanes, schedule)
}

/// The block-sparse serve behind [`multiply_mv_block_sparse_resident_on`]
/// and [`crate::sparse::multiply_mv_block_sparse`].
pub(crate) fn serve_sparse<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    a: Keyed<'_, T>,
    x: &[T],
    b: Option<&[T]>,
) -> Result<(SparseMvOutcome<T>, StagingReport), DbtError> {
    check_cache_w(station, cache);
    let shape = validate_mv_args(a.1, x, b, station.size())?;
    let mut report = StagingReport::default();
    let resident = cache.sparse(a, &mut report)?;
    let outcome = serve_sparse_resident(station, &resident, x, b, shape)?;
    Ok((outcome, report))
}

/// Computes block-sparse `y = A·x + b` through the station's resident band
/// cache; [`crate::sparse::multiply_mv_block_sparse`] is this serve over a
/// capacity-0 cache.
///
/// # Errors
///
/// The errors of [`crate::sparse::multiply_mv_block_sparse`].
pub fn multiply_mv_block_sparse_resident_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    a: &OperandRef<T>,
    x: &[T],
    b: Option<&[T]>,
) -> Result<(SparseMvOutcome<T>, StagingReport), DbtError> {
    serve_sparse(station, cache, a.keyed(), x, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{multiply_mv_block_sparse, plan_block_sparse};
    use crate::{multiply_mm, multiply_mv};
    use sia_matrix::gen;

    #[test]
    fn named_and_content_hashed_keys_behave() {
        let m = gen::random_dense_f64(4, 6, 1);
        let named = OperandRef::named(42, m.clone());
        assert_eq!(named.key(), 42);
        assert_eq!(named.matrix(), &m);
        let h1 = OperandRef::content_hashed(m.clone());
        let h2: OperandRef = m.clone().into();
        assert_eq!(h1.key(), h2.key());
        let other = gen::random_dense_f64(4, 6, 2);
        assert_ne!(h1.key(), OperandRef::content_hashed(other).key());
        // Cloning shares the payload.
        let c = named.clone();
        assert!(Arc::ptr_eq(c.shared(), named.shared()));
        assert_eq!(c.rows(), 4); // Deref
    }

    #[test]
    fn resident_mm_serving_is_bit_identical_and_hits_warm() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 8);
        let a = OperandRef::named(1, gen::random_dense_i64(4, 6, 4, 11));
        let b = OperandRef::named(2, gen::random_dense_i64(6, 4, 4, 12));
        let fresh = multiply_mm(a.matrix(), b.matrix(), None, w).unwrap();
        let (cold, cold_report) = multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None)
            .expect("cold resident serve");
        assert_eq!(cold.c, fresh.c);
        assert_eq!(cold.cycles, fresh.cycles);
        assert_eq!(cold.feedback, fresh.feedback);
        assert_eq!(cold_report.misses, 2);
        assert_eq!(cold_report.hits, 0);
        assert!(!cold_report.operand_hit());
        let shape = validate_mm_args(a.matrix(), b.matrix(), None, w).unwrap();
        assert_eq!(cold_report.staging_cycles, mm_staging_cycles(shape));
        let (warm, warm_report) = multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None)
            .expect("warm resident serve");
        assert_eq!(warm.c, fresh.c);
        assert_eq!(warm.cycles, fresh.cycles);
        assert_eq!(warm_report.hits, 2);
        assert_eq!(warm_report.misses, 0);
        assert_eq!(warm_report.staging_cycles, 0);
        assert!(warm_report.operand_hit());
    }

    #[test]
    fn resident_into_matches_and_reuses_the_output() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 8);
        let a = OperandRef::named(1, gen::random_dense_i64(4, 4, 4, 21));
        let b = OperandRef::named(2, gen::random_dense_i64(4, 4, 4, 22));
        let fresh = multiply_mm(a.matrix(), b.matrix(), None, w).unwrap();
        let mut out = DenseMatrix::zeros(1, 1);
        let (cycles, _) =
            multiply_mm_resident_into(&mut station, &mut cache, &a, &b, None, &mut out).unwrap();
        assert_eq!(out, fresh.c);
        assert_eq!(cycles, fresh.cycles);
        // Second serve into the same (now right-sized) output.
        out.reset(4, 4);
        let (cycles2, report) =
            multiply_mm_resident_into(&mut station, &mut cache, &a, &b, None, &mut out).unwrap();
        assert_eq!(out, fresh.c);
        assert_eq!(cycles2, fresh.cycles);
        assert!(report.operand_hit());
    }

    #[test]
    fn eviction_recycles_slabs_and_refaults_identically() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        // Capacity 2: each MM pair fills the cache, so alternating pairs
        // evict each other.
        let mut cache = BandCache::new(w, 2);
        let a1 = OperandRef::named(1, gen::random_dense_i64(4, 4, 4, 31));
        let b1 = OperandRef::named(2, gen::random_dense_i64(4, 4, 4, 32));
        let a2 = OperandRef::named(3, gen::random_dense_i64(4, 4, 4, 33));
        let b2 = OperandRef::named(4, gen::random_dense_i64(4, 4, 4, 34));
        let first = multiply_mm_resident_on(&mut station, &mut cache, &a1, &b1, None)
            .unwrap()
            .0;
        let (_, evict_report) =
            multiply_mm_resident_on(&mut station, &mut cache, &a2, &b2, None).unwrap();
        assert_eq!(evict_report.evictions, 2);
        assert!(evict_report.evicted.contains(&Some(1)));
        assert!(evict_report.evicted.contains(&Some(2)));
        // The evicted bands' storage is pooled and backs the refault.
        assert!(cache.pooled_slabs() > 0);
        let (refault, refault_report) =
            multiply_mm_resident_on(&mut station, &mut cache, &a1, &b1, None).unwrap();
        assert_eq!(refault_report.misses, 2);
        assert_eq!(refault.c, first.c);
        assert_eq!(refault.cycles, first.cycles);
        assert_eq!(refault.feedback, first.feedback);
    }

    #[test]
    fn resident_mv_serving_is_bit_identical_for_both_schedules() {
        let w = 3;
        for schedule in [MvSchedule::Simple, MvSchedule::Overlapped] {
            let mut station = ArrayStation::<i64>::new(w).unwrap();
            let mut cache = BandCache::new(w, 4);
            let a = OperandRef::named(7, gen::random_dense_i64(12, 9, 5, 41));
            let x = gen::random_vector_i64(9, 5, 42);
            let b = gen::random_vector_i64(12, 5, 43);
            let fresh = multiply_mv(a.matrix(), &x, Some(&b), w, schedule).unwrap();
            let (cold, cold_report) =
                multiply_mv_resident_on(&mut station, &mut cache, &a, &x, Some(&b), schedule)
                    .unwrap();
            assert_eq!(cold.y, fresh.y, "{schedule:?}");
            assert_eq!(cold.cycles, fresh.cycles, "{schedule:?}");
            assert_eq!(cold.feedback, fresh.feedback, "{schedule:?}");
            let shape = validate_mv_args(a.matrix(), &x, Some(&b), w).unwrap();
            assert_eq!(cold_report.staging_cycles, mv_staging_cycles(shape));
            let (warm, warm_report) =
                multiply_mv_resident_on(&mut station, &mut cache, &a, &x, Some(&b), schedule)
                    .unwrap();
            assert_eq!(warm.y, fresh.y, "{schedule:?}");
            assert_eq!(warm.cycles, fresh.cycles, "{schedule:?}");
            assert!(warm_report.operand_hit(), "{schedule:?}");
        }
    }

    #[test]
    fn resident_sparse_serving_is_bit_identical() {
        let w = 3;
        let mut station = ArrayStation::<f64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 4);
        let matrix = gen::block_sparse_f64(12, 12, w, 0.4, 51);
        let a = OperandRef::named(9, matrix.clone());
        let x = gen::random_vector_f64(12, 52);
        let b = gen::random_vector_f64(12, 53);
        let fresh = multiply_mv_block_sparse(&matrix, &x, Some(&b), w).unwrap();
        let (cold, cold_report) =
            multiply_mv_block_sparse_resident_on(&mut station, &mut cache, &a, &x, Some(&b))
                .unwrap();
        assert_eq!(cold.outcome.y, fresh.outcome.y);
        assert_eq!(cold.outcome.cycles, fresh.outcome.cycles);
        assert_eq!(cold.appended_blocks, fresh.appended_blocks);
        let plan = plan_block_sparse(&matrix, w).unwrap();
        assert_eq!(cold_report.staging_cycles, sparse_staging_cycles(&plan));
        let (warm, warm_report) =
            multiply_mv_block_sparse_resident_on(&mut station, &mut cache, &a, &x, Some(&b))
                .unwrap();
        assert_eq!(warm.outcome.y, fresh.outcome.y);
        assert_eq!(warm.outcome.cycles, fresh.outcome.cycles);
        assert!(warm_report.operand_hit());
    }

    #[test]
    fn disabled_cache_serves_correctly_and_retains_nothing() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 0);
        let a = OperandRef::named(1, gen::random_dense_i64(4, 4, 4, 61));
        let b = OperandRef::named(2, gen::random_dense_i64(4, 4, 4, 62));
        let fresh = multiply_mm(a.matrix(), b.matrix(), None, w).unwrap();
        for _ in 0..2 {
            let (outcome, report) =
                multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None).unwrap();
            assert_eq!(outcome.c, fresh.c);
            assert_eq!(report.misses, 2);
            assert_eq!(report.evictions, 0);
            assert!(!report.operand_hit());
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn lanes_resident_serving_matches_solo_and_shares_staging() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 8);
        let a = OperandRef::named(1, gen::random_dense_i64(4, 4, 4, 71));
        let b = OperandRef::named(2, gen::random_dense_i64(4, 4, 4, 72));
        let solo = multiply_mm(a.matrix(), b.matrix(), None, w).unwrap();
        let problems = vec![
            MmProblem {
                a: &a,
                b: &b,
                e: None
            };
            3
        ];
        let (outcomes, reports) =
            multiply_mm_resident_lanes_on(&mut station, &mut cache, &problems).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(reports.len(), 3);
        for outcome in &outcomes {
            assert_eq!(outcome.c, solo.c);
            assert_eq!(outcome.cycles, solo.cycles);
        }
        // Lane 0 stages; lanes 1-2 hit what it staged.
        assert_eq!(reports[0].misses, 2);
        assert!(reports[1].operand_hit());
        assert!(reports[2].operand_hit());
    }
}
