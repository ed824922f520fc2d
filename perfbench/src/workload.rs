//! The two workloads: each one's farm, the finite catalog of distinct
//! jobs it draws from (so the oracle is computed once, in set-up), and the
//! seeded stream that picks the next job.
//!
//! The seed is the benchmark's argument; the farm only sees the jobs.

use crate::oracle::{Expected, Op};
use sia_dbt::OperandRef;
use sia_matrix::gen;
use sia_matrix::rng::SplitMix64;
use sia_runtime::{FarmConfig, Job, Policy};
use std::sync::Arc;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop clients over block-sparse MV with a one-shot tail:
    /// staging, cache-aware routing and eviction.
    SparseChurn,
    /// Batch submission behind long blockers: queue depth, cancels,
    /// weighted-fair order and lane packing.
    Backlog,
}

/// Every workload, in the order the documentation lists them.
pub const ALL: [Workload; 2] = [Workload::SparseChurn, Workload::Backlog];

/// Tiny jobs per backlog cycle, behind the two long blockers.
pub const BACKLOG_JOBS: usize = 16_384;
/// Share of a backlog cycle's tiny jobs the client cancels.
pub const BACKLOG_CANCEL: f64 = 0.05;
/// Weighted-fair tenants of the backlog workload, as `(tenant, weight)`.
pub const BACKLOG_TENANTS: [(u32, u32); 4] = [(0, 1), (1, 2), (2, 4), (3, 8)];
/// Block-sparse matrix order and block density of `sparse-churn` (E14).
const SPARSE_N: usize = 256;
const SPARSE_DENSITY: f64 = 0.2;
/// Band-cache entries per worker on `sparse-churn`: the six hot operands
/// plus two, so the one-shot tail stages and evicts while the hot set
/// mostly stays resident (hit ratio about 0.87).
const SPARSE_CACHE: usize = 8;
/// The backlog's long blockers: one MM on the hex worker, one MV on the
/// linear worker, each sized to outlast the submission of a full cycle.
const BACKLOG_LONG_MM: usize = 112;
const BACKLOG_LONG_MV: usize = 1536;

impl Workload {
    /// Parses a workload name as the command line gives it.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseChurn => "sparse-churn",
            Workload::Backlog => "backlog",
        }
    }

    /// Client threads driving the farm.
    pub fn clients(self) -> usize {
        match self {
            Workload::SparseChurn => 2,
            _ => 1,
        }
    }

    /// The farm this workload runs on.
    pub fn config(self) -> FarmConfig {
        match self {
            Workload::SparseChurn => FarmConfig::new(8)
                .hex_workers(0)
                .linear_workers(2)
                .band_cache(SPARSE_CACHE),
            Workload::Backlog => BACKLOG_TENANTS.iter().fold(
                FarmConfig::new(4)
                    .hex_workers(1)
                    .linear_workers(1)
                    .policy(Policy::WeightedFair)
                    .coalesce_limit(16)
                    .lanes(16),
                |config, &(tenant, weight)| config.tenant_weight(tenant, weight),
            ),
        }
    }
}

/// One distinct job of a catalog and what it must return.
#[derive(Debug, Clone)]
pub struct Entry {
    pub op: Op,
    pub expected: Expected,
}

impl Entry {
    /// The farm job for this entry; `key` re-keys the matrix operand
    /// (one-shot operands: same payload, never-seen identity).
    pub fn job(&self, key: Option<u64>) -> Job {
        let rekey = |a: &OperandRef| match key {
            Some(key) => OperandRef::named(key, Arc::clone(a.shared())),
            None => a.clone(),
        };
        match &self.op {
            Op::Mm { a, b } => Job::dense_mm(a.clone(), b.clone()),
            Op::Mv { a, x } => Job::dense_mv(rekey(a), x.clone()),
            Op::Sparse { a, x } => Job::block_sparse_mv(rekey(a), x.clone()),
        }
    }

    /// Processing elements of the array that serves this entry: `w²` hex
    /// cells or `w` linear cells.
    pub fn pes(&self, w: usize) -> u64 {
        match self.op {
            Op::Mm { .. } => (w * w) as u64,
            Op::Mv { .. } | Op::Sparse { .. } => w as u64,
        }
    }
}

/// A set of catalog entries a stream picks from uniformly.
#[derive(Debug, Clone)]
pub struct Group {
    pub entries: Vec<usize>,
    /// Relative pick weight.
    pub weight: u32,
    /// Each pick gets a fresh operand key, so it misses every band cache.
    pub one_shot: bool,
}

/// A workload's distinct jobs, their oracle, and how streams pick them.
#[derive(Debug)]
pub struct Catalog {
    pub w: usize,
    pub entries: Vec<Entry>,
    pub groups: Vec<Group>,
    /// The backlog's long blockers (empty elsewhere).
    pub long: Vec<usize>,
    /// Distinct jobs whose direct call disagreed with the host product.
    pub host_mismatches: usize,
}

/// Derives an independent generator seed from the run seed and a label.
fn sub_seed(seed: u64, label: u64) -> u64 {
    SplitMix64::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

struct Builder {
    w: usize,
    seed: u64,
    entries: Vec<Entry>,
    host_mismatches: usize,
    next_key: u64,
}

impl Builder {
    fn operand(&mut self, rows: usize, cols: usize) -> OperandRef {
        self.next_key += 1;
        let matrix = gen::random_dense_f64(rows, cols, sub_seed(self.seed, self.next_key));
        OperandRef::named(self.next_key, matrix)
    }

    fn sparse_operand(&mut self, n: usize) -> OperandRef {
        self.next_key += 1;
        let seed = sub_seed(self.seed, self.next_key);
        let matrix = gen::block_sparse_f64(n, n, self.w, SPARSE_DENSITY, seed);
        OperandRef::named(self.next_key, matrix)
    }

    fn vectors(&mut self, len: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|_| {
                self.next_key += 1;
                gen::random_vector_f64(len, sub_seed(self.seed, self.next_key))
            })
            .collect()
    }

    fn push(&mut self, op: Op) -> usize {
        let (expected, host_ok) = op.expected(self.w);
        if !host_ok {
            self.host_mismatches += 1;
        }
        self.entries.push(Entry { op, expected });
        self.entries.len() - 1
    }

    /// `pairs` MM entries of shape `n × p × m`.
    fn mm_group(&mut self, (n, p, m): (usize, usize, usize), pairs: usize) -> Vec<usize> {
        (0..pairs)
            .map(|_| {
                let a = self.operand(n, p);
                let b = self.operand(p, m);
                self.push(Op::Mm { a, b })
            })
            .collect()
    }

    /// `operands × vectors` MV entries of shape `n × m`.
    fn mv_group(&mut self, (n, m): (usize, usize), operands: usize, xs: usize) -> Vec<usize> {
        let mut ids = Vec::new();
        for _ in 0..operands {
            let a = self.operand(n, m);
            for x in self.vectors(m, xs) {
                ids.push(self.push(Op::Mv { a: a.clone(), x }));
            }
        }
        ids
    }

    /// `operands × vectors` block-sparse MV entries of order `n`.
    fn sparse_group(&mut self, n: usize, operands: usize, xs: usize) -> Vec<usize> {
        let xs = self.vectors(n, xs);
        let mut ids = Vec::new();
        for _ in 0..operands {
            let a = self.sparse_operand(n);
            for x in &xs {
                ids.push(self.push(Op::Sparse {
                    a: a.clone(),
                    x: x.clone(),
                }));
            }
        }
        ids
    }
}

fn group(entries: Vec<usize>, weight: u32) -> Group {
    Group {
        entries,
        weight,
        one_shot: false,
    }
}

impl Catalog {
    /// Generates the workload's operands from `seed` and computes every
    /// distinct job's oracle.
    pub fn build(workload: Workload, seed: u64) -> Catalog {
        let w = workload.config().w;
        let mut b = Builder {
            w,
            seed,
            entries: Vec::new(),
            host_mismatches: 0,
            next_key: 0,
        };
        let mut long = Vec::new();
        let groups = match workload {
            Workload::SparseChurn => {
                let hot = b.sparse_group(SPARSE_N, 6, 8);
                let payloads = b.sparse_group(SPARSE_N, 4, 4);
                vec![
                    group(hot, 9),
                    Group {
                        entries: payloads,
                        weight: 1,
                        one_shot: true,
                    },
                ]
            }
            Workload::Backlog => {
                long.extend(b.mm_group((BACKLOG_LONG_MM, BACKLOG_LONG_MM, BACKLOG_LONG_MM), 1));
                long.extend(b.mv_group((BACKLOG_LONG_MV, BACKLOG_LONG_MV), 1, 1));
                vec![
                    group(b.mv_group((8, 8), 4, 4), 4),
                    group(b.mv_group((12, 16), 4, 4), 3),
                    group(b.mm_group((8, 8, 8), 8), 3),
                ]
            }
        };
        Catalog {
            w,
            entries: b.entries,
            groups,
            long,
            host_mismatches: b.host_mismatches,
        }
    }

    /// Whether `entry` belongs to a one-shot group.
    pub fn one_shot(&self, entry: usize) -> bool {
        self.groups
            .iter()
            .any(|g| g.one_shot && g.entries.contains(&entry))
    }
}

/// One pick of a stream: the catalog entry and, for one-shot groups, the
/// fresh operand key.
#[derive(Debug, Clone, Copy)]
pub struct Pick {
    pub entry: usize,
    pub key: Option<u64>,
}

/// A client's seeded job stream over a catalog.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SplitMix64,
    next_key: u64,
}

impl Stream {
    /// Client `client`'s stream under run seed `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        Stream {
            rng: SplitMix64::new(sub_seed(seed, 0xC11E_0000 + client)),
            // One-shot keys live far above the catalog's named keys and
            // are disjoint across clients.
            next_key: (1 << 62) | (client << 40),
        }
    }

    /// The next job to submit.
    pub fn next(&mut self, catalog: &Catalog) -> Pick {
        let total: u32 = catalog.groups.iter().map(|g| g.weight).sum();
        let mut roll = self.rng.range_usize(0, total as usize) as u32;
        let mut g = &catalog.groups[0];
        for group in &catalog.groups {
            if roll < group.weight {
                g = group;
                break;
            }
            roll -= group.weight;
        }
        let entry = g.entries[self.rng.range_usize(0, g.entries.len())];
        let key = g.one_shot.then(|| {
            self.next_key += 1;
            self.next_key
        });
        Pick { entry, key }
    }

    /// A seeded coin with probability `p`.
    pub fn coin(&mut self, p: f64) -> bool {
        self.rng.next_bool(p)
    }

    /// A seeded tenant of the backlog's weighted-fair set.
    pub fn tenant(&mut self) -> u32 {
        BACKLOG_TENANTS[self.rng.range_usize(0, BACKLOG_TENANTS.len())].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn streams_repeat_under_a_seed() {
        let catalog = Catalog::build(Workload::SparseChurn, 7);
        assert_eq!(catalog.host_mismatches, 0);
        let picks = |seed| {
            let mut s = Stream::new(seed, 0);
            (0..64)
                .map(|_| {
                    let p = s.next(&catalog);
                    (p.entry, p.key)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
        let one_shots = picks(7).iter().filter(|(_, k)| k.is_some()).count();
        assert!(
            one_shots > 0 && one_shots < 32,
            "one-shot share {one_shots}/64"
        );
    }
}
