//! Benchmark dataset management: deterministic synthetic inputs cached on
//! disk so repeated experiments reuse them.

use std::path::{Path, PathBuf};

use ngs_formats::error::Result;
use ngs_simgen::{Dataset, DatasetSpec, ReadProfile};

/// Experiment scale knob. `1.0` targets a ~2-minute full run on one
/// laptop core; the paper's datasets are tens of GB and would correspond
/// to scales in the thousands.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    fn n(&self, base: usize) -> usize {
        ((base as f64 * self.0) as usize).max(64)
    }

    /// Records in the Table I chr1 dataset (paper: ~125 M sequences).
    pub fn table1_records(&self) -> usize {
        self.n(30_000)
    }

    /// Records in the Fig 6 SAM dataset (paper: 100 GB).
    pub fn fig6_records(&self) -> usize {
        self.n(40_000)
    }

    /// Records in the Fig 7/8 BAM dataset (paper: 117 GB sorted).
    pub fn fig7_records(&self) -> usize {
        self.n(40_000)
    }

    /// Records in the Fig 9/10 SAM dataset (paper: 15.7 GB).
    pub fn fig9_records(&self) -> usize {
        self.n(20_000)
    }

    /// Histogram bins for Fig 11 (paper: 16 Mbp / 25 bp = 640 000 bins).
    pub fn nlmeans_bins(&self) -> usize {
        self.n(20_000)
    }

    /// Histogram bins for Fig 12 (paper: 16 M bins).
    pub fn fdr_bins(&self) -> usize {
        self.n(30_000)
    }

    /// Simulation rounds for Fig 12 (paper: 80).
    pub fn fdr_rounds(&self) -> usize {
        ((80.0 * self.0.min(1.0)) as usize).clamp(8, 80)
    }

    /// Records per dataset (or shard) in the serving, fault and
    /// recovery experiments.
    pub fn query_records(&self) -> usize {
        self.n(8_000)
    }

    /// Planned arrivals per row of the overload experiment. Sized so a
    /// closed-loop pass runs hundreds of ms at scale 1.0, long enough
    /// that the calibrated rate exceeds run-to-run timer noise.
    pub fn query_requests(&self) -> usize {
        self.n(2_048).max(128)
    }

    /// Records in the observability-overhead and collate experiments.
    pub fn pipeline_records(&self) -> usize {
        self.n(24_000)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

/// On-disk cache of generated inputs.
pub struct DataCache {
    root: PathBuf,
}

impl DataCache {
    /// Uses (and creates) `root` as the cache directory.
    pub fn new(root: impl AsRef<Path>) -> Result<Self> {
        std::fs::create_dir_all(root.as_ref())?;
        Ok(DataCache { root: root.as_ref().to_path_buf() })
    }

    /// A cache under `target/ngs-bench-data` (or `NGS_BENCH_DATA`).
    pub fn default_location() -> Result<Self> {
        let root = std::env::var_os("NGS_BENCH_DATA")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/ngs-bench-data"));
        Self::new(root)
    }

    /// The cache root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A scratch directory for experiment outputs (cleared per call).
    pub fn scratch(&self, name: &str) -> Result<PathBuf> {
        let dir = self.root.join("scratch").join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    fn spec(records: usize, chroms: usize, sorted: bool) -> DatasetSpec {
        DatasetSpec {
            chr1_len: (records as u64 * 40).max(100_000),
            n_chroms: chroms,
            n_records: records,
            profile: ReadProfile::default(),
            seed: 20140519,
            coordinate_sorted: sorted,
        }
    }

    /// A cached SAM file with `records` alignments over `chroms`
    /// chromosomes.
    pub fn sam(&self, records: usize, chroms: usize) -> Result<PathBuf> {
        let path = self.root.join(format!("reads-{records}-{chroms}.sam"));
        if !path.exists() {
            let ds = Dataset::generate(&Self::spec(records, chroms, false));
            ds.write_sam(&path)?;
        }
        Ok(path)
    }

    /// A cached coordinate-sorted BAM file.
    pub fn bam(&self, records: usize, chroms: usize) -> Result<PathBuf> {
        let path = self.root.join(format!("reads-{records}-{chroms}.sorted.bam"));
        if !path.exists() {
            let ds = Dataset::generate(&Self::spec(records, chroms, true));
            ds.write_bam(&path)?;
        }
        Ok(path)
    }

    /// The in-memory dataset matching [`Self::sam`] (for histograms).
    pub fn dataset(&self, records: usize, chroms: usize, sorted: bool) -> Dataset {
        Dataset::generate(&Self::spec(records, chroms, sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    #[test]
    fn cache_reuses_files() {
        let dir = tempdir().unwrap();
        let cache = DataCache::new(dir.path()).unwrap();
        let p1 = cache.sam(500, 2).unwrap();
        let modified1 = std::fs::metadata(&p1).unwrap().modified().unwrap();
        let p2 = cache.sam(500, 2).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(std::fs::metadata(&p2).unwrap().modified().unwrap(), modified1);
        // Different parameters → different file.
        let p3 = cache.sam(600, 2).unwrap();
        assert_ne!(p1, p3);
    }

    #[test]
    fn scratch_is_cleared() {
        let dir = tempdir().unwrap();
        let cache = DataCache::new(dir.path()).unwrap();
        let s = cache.scratch("exp").unwrap();
        std::fs::write(s.join("junk"), b"x").unwrap();
        let s2 = cache.scratch("exp").unwrap();
        assert_eq!(s, s2);
        assert!(!s2.join("junk").exists());
    }

    #[test]
    fn scale_knobs() {
        let s = Scale(0.1);
        assert!(s.table1_records() < Scale(1.0).table1_records());
        assert!(s.fdr_rounds() >= 8);
        assert!(Scale(0.001).nlmeans_bins() >= 64);
    }
}
