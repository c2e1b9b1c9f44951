//! Request generator: a workload name and a seed become an `mto_serve run`
//! request file (plus, for `warm-restart`, the history fixture it
//! warm-starts from). Nothing is downloaded; every file written here can
//! be replayed by hand with `mto_serve run <request>`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mto_graph::NodeId;
use mto_osn::{CachedClient, OsnService};
use mto_serve::history::HistoryStore;
use mto_serve::request::NetworkSpec;

/// The request shapes the benchmark drives (see `METRICS.md` for why each
/// was chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two gossiping shards, 40 epochs, 32 mixed jobs: gossip dominates.
    FleetGossip,
    /// The default scheduler path with two workers over one warm cache:
    /// criterion scans, overlay views and the shared-client lock.
    MtoWarm,
    /// One shard warm-started from a large history, QoS ledger and EDF:
    /// the history codec dominates.
    WarmRestart,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::FleetGossip, Workload::MtoWarm, Workload::WarmRestart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetGossip => "fleet-gossip",
            Workload::MtoWarm => "mto-warm",
            Workload::WarmRestart => "warm-restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a tiny seeded stream, so generated inputs depend on the
/// seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A generated request: its text, where it was written, and the network
/// it names.
pub struct Generated {
    pub text: String,
    pub path: PathBuf,
    pub network: NetworkSpec,
}

const ALGOS: [&str; 3] = ["mto", "srw", "mhrw"];

/// The warm-restart fixture leaves out one node in `FIXTURE_HOLE`, so
/// warm-started walks still pay a nonzero bill.
const FIXTURE_HOLE: u64 = 10;

/// Writes `workload`'s request for `seed` (and its fixture) into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<Generated, String> {
    let mut rng = SplitMix(seed.wrapping_mul(3).wrapping_add(workload as u64));
    let graph_seed = rng.below(1_000_000);
    let mut job_seeds = SplitMix(rng.next());
    let mut offsets = SplitMix(rng.next());
    let network = match workload {
        Workload::FleetGossip => NetworkSpec::Gnp { n: 50_000, p: 0.0002, seed: graph_seed },
        Workload::MtoWarm => NetworkSpec::Sbm {
            blocks: 8,
            block_size: 2500,
            p_in: 0.004,
            p_out: 0.00005,
            seed: graph_seed,
        },
        Workload::WarmRestart => NetworkSpec::Gnp { n: 100_000, p: 0.0001, seed: graph_seed },
    };
    let graph = network.build();
    let n = graph.num_nodes();
    // Spread starts: job `i` of `k` starts in the i-th slice of the id
    // range, at the first node from a random offset with degree ≥ 2 (an
    // isolated node or a lone edge leaves a walk nothing to do).
    let mut job = |i: usize, k: usize, id: String, algo: &str, steps: usize| {
        let slice = n / k;
        let mut v = i * slice + offsets.below(slice as u64) as usize;
        while graph.degree(NodeId(v as u32)) < 2 {
            v = (v + 1) % n;
        }
        let seed = job_seeds.below(1_000_000);
        format!("job id={id} algo={algo} start={v} steps={steps} seed={seed}")
    };

    let mut text = format!(
        "# servebench workload {} seed {seed}\nnetwork {}\n",
        workload.name(),
        network.to_line()
    );
    match workload {
        Workload::FleetGossip => {
            text.push_str("shards 2\nepochs 40\nquality\n");
            for i in 0..32 {
                writeln!(text, "{}", job(i, 32, format!("g{i:02}"), ALGOS[i % 3], 40_000))
                    .expect("string write");
            }
        }
        Workload::MtoWarm => {
            text.push_str("workers 2\n");
            for i in 0..16 {
                writeln!(text, "{}", job(i, 16, format!("m{i:02}"), "mto", 100_000))
                    .expect("string write");
            }
        }
        Workload::WarmRestart => {
            let fixture = dir.join("fixture.hist");
            write_fixture(&graph, seed, &fixture)?;
            writeln!(
                text,
                "shards 1\nepochs 8\nbudget 40000\npolicy edf\nquality\nwarm-start {}\n\
                 save-history {}",
                fixture.display(),
                dir.join("out.hist").display()
            )
            .expect("string write");
            // Deadlines on half the jobs, `ess=` SLOs on a third.
            for i in 0..12 {
                text.push_str(&job(i, 12, format!("r{i:02}"), ALGOS[(i / 2) % 3], 4_000));
                if i % 2 == 0 {
                    write!(text, " deadline={}.0", 20 + i).expect("string write");
                }
                if i % 3 == 2 {
                    text.push_str(" ess=150");
                }
                text.push('\n');
            }
        }
    }
    let path = dir.join(format!("{}.req", workload.name()));
    std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Generated { text, path, network })
}

/// The warm-restart history: every node's response except a seeded one
/// in [`FIXTURE_HOLE`], crawled through the public client and saved with
/// the public codec.
fn write_fixture(graph: &mto_graph::Graph, seed: u64, path: &Path) -> Result<(), String> {
    let mut client = CachedClient::new(OsnService::with_defaults(graph));
    let mut holes = SplitMix(!seed);
    for v in 0..graph.num_nodes() as u32 {
        if holes.below(FIXTURE_HOLE) != 0 {
            client.query(NodeId(v)).map_err(|e| format!("fixture crawl at {v}: {e}"))?;
        }
    }
    HistoryStore::from_client(&client)
        .save(path)
        .map_err(|e| format!("writing fixture {}: {e}", path.display()))
}
