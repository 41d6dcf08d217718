//! The benchmark's workloads: their generator parameters, the input files
//! generated from a seed, and the set-up steps every `gsnp call` pays
//! before its first window (parse, calibrate, table upload).

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gsnp::core::likelihood::DeviceTables;
use gsnp::core::{ModelParams, SharedTables};
use gsnp::gpu_sim::{DeviceConfig, DeviceGroup};
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::prior::PriorMap;
use gsnp::seqio::soap::{write_alignments, AlignedRead, AlignmentReader};
use gsnp::seqio::synth::{Cohort, CohortConfig, Dataset, SynthConfig};

use crate::clock::Clock;

/// Windows each workload is cut into (`gsnp call --window`), so the
/// streamed window loop overlaps and batches windows as it does on a
/// whole chromosome, at a size that decodes in seconds.
pub const WINDOWS: u64 = 8;

/// Read length of every generated read (as `gsnp synth` writes).
pub const READ_LEN: usize = 100;

/// Fraction of a cohort's variant sites shared by every sample (the
/// `gsnp synth --samples` default).
pub const COHORT_SHARED_RATE: f64 = 0.6;

/// One workload's generator parameters. Everything else comes from
/// `SynthConfig::tiny`, as `gsnp synth` does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Reference sites (per sample).
    pub sites: u64,
    /// Mean read depth over covered sites.
    pub depth: f64,
    /// Samples; more than one runs `gsnp call --cohort`.
    pub samples: usize,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    // Per-observation layers dominate: parse, input codec, windows,
    // counting, sort, fused likelihood.
    Workload {
        name: "deep",
        sites: 60_000,
        depth: 40.0,
        samples: 1,
    },
    // Per-site layers dominate: posterior, column codec, decode and text.
    Workload {
        name: "wide",
        sites: 100_000,
        depth: 3.0,
        samples: 1,
    },
    // The cohort path: pooled calibration, one table upload, shared
    // sample-major batches.
    Workload {
        name: "cohort4",
        sites: 20_000,
        depth: 10.0,
        samples: 4,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload with `scale` times the sites (tests run tiny).
    pub fn scaled(self, scale: f64) -> Workload {
        Workload {
            sites: ((self.sites as f64 * scale) as u64).max(2_000),
            ..self
        }
    }

    /// Whether this workload runs the cohort path.
    pub fn is_cohort(&self) -> bool {
        self.samples > 1
    }

    /// `--window` for every call.
    pub fn window_size(&self) -> usize {
        self.sites.div_ceil(WINDOWS) as usize
    }

    /// Sites summed over samples: the numerator of every Msites/s figure.
    pub fn total_sites(&self) -> u64 {
        self.sites * self.samples as u64
    }

    fn synth_config(&self, seed: u64) -> SynthConfig {
        let mut cfg = SynthConfig::tiny(seed);
        cfg.chr_name = "chrB".into();
        cfg.num_sites = self.sites;
        cfg.depth = self.depth;
        cfg.read_len = READ_LEN;
        cfg
    }
}

/// Input files of one run, as passed to `gsnp`.
#[derive(Debug, Clone)]
pub struct InputFiles {
    /// FASTA reference.
    pub reference: PathBuf,
    /// Known-SNP priors.
    pub priors: PathBuf,
    /// `(sample name, SOAP alignments)` per sample.
    pub samples: Vec<(String, PathBuf)>,
    /// `cohort.tsv` manifest (cohort workloads only).
    pub manifest: Option<PathBuf>,
}

/// Generate a workload's inputs from `seed` into `dir`.
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> io::Result<InputFiles> {
    fs::create_dir_all(dir)?;
    let base = w.synth_config(seed);
    let chr = base.chr_name.clone();
    let files = |names: &[String]| InputFiles {
        reference: dir.join("reference.fa"),
        priors: dir.join("priors.txt"),
        samples: names
            .iter()
            .map(|n| (n.clone(), dir.join(format!("{n}.soap"))))
            .collect(),
        manifest: w.is_cohort().then(|| dir.join("cohort.tsv")),
    };
    let (reference, priors, samples) = if w.is_cohort() {
        let c = Cohort::generate(CohortConfig {
            base,
            num_samples: w.samples,
            shared_rate: COHORT_SHARED_RATE,
        });
        let samples: Vec<_> = c.samples.into_iter().map(|s| (s.name, s.reads)).collect();
        (c.reference, c.priors, samples)
    } else {
        let d = Dataset::generate(base);
        (d.reference, d.priors, vec![("reads".to_string(), d.reads)])
    };
    let names: Vec<String> = samples.iter().map(|(n, _)| n.clone()).collect();
    let out = files(&names);
    write_with(&out.reference, |f| {
        reference.write_fasta(f).map_err(io::Error::other)
    })?;
    write_with(&out.priors, |f| {
        priors.write(&chr, f).map_err(io::Error::other)
    })?;
    for ((_, reads), (_, path)) in samples.iter().zip(&out.samples) {
        write_with(path, |f| {
            write_alignments(reads, f).map_err(io::Error::other)
        })?;
    }
    if let Some(manifest) = &out.manifest {
        let text: String = names.iter().map(|n| format!("{n}\t{n}.soap\n")).collect();
        fs::write(manifest, text)?;
    }
    Ok(out)
}

fn write_with(
    path: &Path,
    f: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    f(&mut w)?;
    w.flush()
}

/// Everything set-up produces: parsed inputs, calibrated tables, and the
/// device they were uploaded to.
pub struct Loaded {
    /// Parsed reference.
    pub reference: Reference,
    /// Parsed priors.
    pub priors: PriorMap,
    /// Parsed alignments, per sample.
    pub reads: Vec<Vec<AlignedRead>>,
    /// Calibrated score tables (pooled over samples on a cohort).
    pub tables: Arc<SharedTables>,
    /// The one-device group the tables were uploaded to.
    pub group: DeviceGroup,
    /// The uploaded tables, one per device.
    pub device_tables: Vec<DeviceTables>,
    /// Bytes of the parsed input files.
    pub input_bytes: u64,
}

/// Parse the inputs, calibrate, and upload the tables — each public call
/// timed through `clock` under its layer name.
pub fn set_up<C: Clock>(clock: &mut C, files: &InputFiles) -> Result<Loaded, String> {
    let open = |p: &Path| {
        File::open(p)
            .map(BufReader::new)
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    // Same order as `gsnp call`: reference, priors, alignments.
    let (reference, priors, reads) = clock.time("seqio.parse", |c| {
        let reference = c.time("seqio.parse.reference", |_| {
            Reference::read_fasta(open(&files.reference)?).map_err(|e| e.to_string())
        })?;
        let priors = c.time("seqio.parse.priors", |_| {
            PriorMap::read(open(&files.priors)?).map_err(|e| e.to_string())
        })?;
        let reads = c.time("seqio.parse.reads", |_| {
            files
                .samples
                .iter()
                .map(|(_, p)| {
                    AlignmentReader::new(open(p)?)
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("{}: {e}", p.display()))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        Ok::<_, String>((reference, priors, reads))
    })?;
    let params = ModelParams::default();
    let tables = clock.time("tables.calibrate", |_| {
        Arc::new(match reads.as_slice() {
            [one] => SharedTables::calibrate(one, &reference, &params),
            many => {
                SharedTables::calibrate_pooled(many.iter().map(Vec::as_slice), &reference, &params)
            }
        })
    });
    let group = DeviceGroup::new(DeviceConfig::tesla_m2050(), 1);
    let device_tables = clock.time("likelihood.upload", |_| {
        DeviceTables::upload_group(&group, &tables.p_matrix, &tables.new_p, &tables.log_table)
    });
    let mut input_bytes = 0;
    for p in [&files.reference, &files.priors]
        .into_iter()
        .chain(files.samples.iter().map(|(_, p)| p))
    {
        input_bytes += fs::metadata(p)
            .map_err(|e| format!("{}: {e}", p.display()))?
            .len();
    }
    Ok(Loaded {
        reference,
        priors,
        reads,
        tables,
        group,
        device_tables,
        input_bytes,
    })
}
