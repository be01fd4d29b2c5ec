//! The high-level framework facade: one object exposing the paper's
//! whole system — three converter instances, partial conversion, and the
//! parallel statistical analysis steps — behind a small API.

use std::path::{Path, PathBuf};

use ngs_bamx::Region;
use ngs_converter::{
    BamConverter, ConvertConfig, ConvertReport, PreprocessReport, SamConverter, SamxConverter,
    SamxPreprocessReport, TargetFormat,
};
use ngs_formats::error::Result;
use ngs_formats::header::SamHeader;
use ngs_stats::{
    fdr_parallel, nlmeans_distributed, CoverageHistogram, FdrInput, NlMeansParams, NullModel,
};

/// Framework-wide configuration.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Ranks used by every parallel phase.
    pub ranks: usize,
    /// Histogram bin size in bp (paper: 25).
    pub bin_size: u32,
    /// NL-means parameters.
    pub nlmeans: NlMeansParams,
    /// Converter runtime settings.
    pub convert: ConvertConfig,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        let ranks = std::thread::available_parallelism().map(usize::from).unwrap_or(4);
        FrameworkConfig {
            ranks,
            bin_size: 25,
            nlmeans: NlMeansParams::default(),
            convert: ConvertConfig::with_ranks(ranks),
        }
    }
}

impl FrameworkConfig {
    /// Uses `ranks` everywhere.
    pub fn with_ranks(ranks: usize) -> Self {
        FrameworkConfig {
            ranks,
            convert: ConvertConfig::with_ranks(ranks),
            ..Default::default()
        }
    }
}

/// The scalable sequence data analysis framework.
pub struct Framework {
    /// Configuration shared by all operations.
    pub config: FrameworkConfig,
}

impl Framework {
    /// Creates a framework with the given configuration.
    pub fn new(config: FrameworkConfig) -> Self {
        Framework { config }
    }

    /// Creates a framework sized to the machine.
    pub fn auto() -> Self {
        Self::new(FrameworkConfig::default())
    }

    // -- Format conversion ------------------------------------------------

    /// Parallel SAM conversion (converter instance 1).
    pub fn convert_sam(
        &self,
        input: impl AsRef<Path>,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<ConvertReport> {
        SamConverter::new(self.config.convert.clone()).convert_file(input, target, out_dir)
    }

    /// BAM conversion with sequential preprocessing (converter
    /// instance 2). Returns both phase reports.
    pub fn convert_bam(
        &self,
        input: impl AsRef<Path>,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<(PreprocessReport, ConvertReport)> {
        let conv = BamConverter::new(self.config.convert.clone());
        let out_dir = out_dir.as_ref();
        let prep = conv.preprocess(input, out_dir.join("bamx"))?;
        let mut report = conv.convert_bamx(&prep.bamx_path, target, out_dir)?;
        report.preprocess_time = prep.elapsed;
        Ok((prep, report))
    }

    /// Partial BAM conversion over a region string like `chr1:1000-5000`.
    pub fn convert_bam_partial(
        &self,
        input: impl AsRef<Path>,
        region: &str,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<(PreprocessReport, ConvertReport)> {
        let conv = BamConverter::new(self.config.convert.clone());
        let out_dir = out_dir.as_ref();
        let prep = conv.preprocess(input, out_dir.join("bamx"))?;
        let header = ngs_bamx::BamxFile::open(&prep.bamx_path)?.header().clone();
        let region = Region::parse(region, &header)?;
        let mut report = conv.convert_partial(
            &prep.bamx_path,
            &prep.baix_path,
            &region,
            target,
            out_dir,
        )?;
        report.preprocess_time = prep.elapsed;
        Ok((prep, report))
    }

    /// Preprocessing-optimized SAM conversion (converter instance 3).
    pub fn convert_sam_optimized(
        &self,
        input: impl AsRef<Path>,
        target: TargetFormat,
        out_dir: impl AsRef<Path>,
    ) -> Result<(SamxPreprocessReport, ConvertReport)> {
        SamxConverter::new(self.config.convert.clone()).convert_file(input, target, out_dir)
    }

    // -- Interactive querying ---------------------------------------------

    /// Starts a long-lived region-query engine over a directory of
    /// preprocessed BAMX+BAIX shards (as produced by
    /// [`BamConverter::preprocess`](ngs_converter::BamConverter::preprocess)).
    /// The engine runs `ranks` workers and serves concurrent
    /// region→format conversion and coverage-histogram requests with
    /// admission control, deadlines, and cached shard handles — see
    /// `ngs-query`.
    pub fn query_engine(
        &self,
        shard_dir: impl AsRef<Path>,
    ) -> Result<ngs_query::QueryEngine> {
        let config = ngs_query::EngineConfig {
            workers: self.config.ranks,
            convert: ConvertConfig {
                ranks: 1,
                ..self.config.convert.clone()
            },
            ..ngs_query::EngineConfig::default()
        };
        ngs_query::QueryEngine::new(shard_dir, config)
    }

    // -- Streaming pipeline -----------------------------------------------

    /// A bounded streaming pipeline sized like this framework: `ranks`
    /// stage workers over record batches in bounded channels, so peak
    /// memory is proportional to the channel capacity rather than the
    /// input size. Output is byte-identical to the one-shot converter
    /// paths — see `ngs-pipeline` and DESIGN.md §8.
    pub fn pipeline(&self) -> ngs_pipeline::Pipeline {
        ngs_pipeline::Pipeline::new(ngs_pipeline::PipelineConfig::with_workers(self.config.ranks))
    }

    // -- Statistical analysis ---------------------------------------------

    /// Builds the coverage histogram of a SAM file by converting to
    /// BEDGRAPH in parallel and accumulating the parts — the exact
    /// converter → statistics hand-off the paper describes.
    pub fn histogram_from_sam(&self, input: impl AsRef<Path>) -> Result<CoverageHistogram> {
        let input = input.as_ref();
        let tmp = tempfile::tempdir()?;
        let report = self.convert_sam(input, TargetFormat::BedGraph, tmp.path())?;
        let source = ngs_converter::FileSource::open(input)?;
        let (header, _) = ngs_converter::runtime::scan_sam_header(&source)?;
        let mut hist = CoverageHistogram::new(&header, self.config.bin_size);
        for part in &report.outputs {
            let text = std::fs::read(part)?;
            hist.add_bedgraph_text(&text)?;
        }
        Ok(hist)
    }

    /// Parallel NL-means denoising of a histogram.
    pub fn denoise(&self, histogram: &CoverageHistogram) -> Vec<f64> {
        nlmeans_distributed(&histogram.bins, &self.config.nlmeans, self.config.ranks).0
    }

    /// Parallel FDR at threshold `p_t` against `rounds` simulated
    /// datasets of the given null model.
    pub fn fdr(
        &self,
        bins: &[f64],
        rounds: usize,
        model: NullModel,
        p_t: f64,
        seed: u64,
    ) -> f64 {
        let input = ngs_stats::build_fdr_input(bins.to_vec(), rounds, model, seed);
        fdr_parallel(&input, p_t, self.config.ranks).0
    }

    /// Parallel FDR with a caller-provided input.
    pub fn fdr_with_input(&self, input: &FdrInput, p_t: f64) -> f64 {
        fdr_parallel(input, p_t, self.config.ranks).0
    }
}

/// Convenience container tying one input file to its derived artifacts.
#[derive(Debug)]
pub struct AnalysisOutputs {
    /// Converted target files.
    pub converted: Vec<PathBuf>,
    /// The denoised histogram.
    pub denoised: Vec<f64>,
    /// FDR at the requested threshold.
    pub fdr: f64,
}

/// End-to-end demo pipeline: convert → histogram → denoise → FDR.
pub fn analyze_sam(
    framework: &Framework,
    input: impl AsRef<Path>,
    target: TargetFormat,
    out_dir: impl AsRef<Path>,
    fdr_rounds: usize,
    p_t: f64,
) -> Result<AnalysisOutputs> {
    let report = framework.convert_sam(&input, target, &out_dir)?;
    let hist = framework.histogram_from_sam(&input)?;
    let denoised = framework.denoise(&hist);
    let fdr = framework.fdr(&denoised, fdr_rounds, NullModel::Poisson, p_t, 7);
    Ok(AnalysisOutputs { converted: report.outputs, denoised, fdr })
}

/// Re-parses the SAM header of a file (utility for examples).
pub fn sam_header_of(input: impl AsRef<Path>) -> Result<SamHeader> {
    let source = ngs_converter::FileSource::open(input)?;
    let (header, _) = ngs_converter::runtime::scan_sam_header(&source)?;
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simgen::{Dataset, DatasetSpec};
    use tempfile::tempdir;

    fn make_sam(dir: &Path, n: usize) -> PathBuf {
        let ds = Dataset::generate(&DatasetSpec { n_records: n, ..Default::default() });
        let path = dir.join("input.sam");
        ds.write_sam(&path).unwrap();
        path
    }

    fn make_bam(dir: &Path, n: usize) -> PathBuf {
        let ds = Dataset::generate(&DatasetSpec {
            n_records: n,
            coordinate_sorted: true,
            ..Default::default()
        });
        let path = dir.join("input.bam");
        ds.write_bam(&path).unwrap();
        path
    }

    #[test]
    fn facade_sam_conversion() {
        let dir = tempdir().unwrap();
        let input = make_sam(dir.path(), 300);
        let fw = Framework::new(FrameworkConfig::with_ranks(3));
        let report = fw.convert_sam(&input, TargetFormat::Bed, dir.path().join("out")).unwrap();
        assert_eq!(report.records_in(), 300);
        assert_eq!(report.outputs.len(), 3);
    }

    #[test]
    fn facade_bam_full_and_partial() {
        let dir = tempdir().unwrap();
        let input = make_bam(dir.path(), 400);
        let fw = Framework::new(FrameworkConfig::with_ranks(2));
        let (prep, full) =
            fw.convert_bam(&input, TargetFormat::Sam, dir.path().join("full")).unwrap();
        assert_eq!(prep.records, 400);
        assert_eq!(full.records_in(), 400);

        let (_, partial) = fw
            .convert_bam_partial(&input, "chr1", TargetFormat::Bed, dir.path().join("part"))
            .unwrap();
        assert!(partial.records_in() > 0);
        assert!(partial.records_in() <= 400);
    }

    #[test]
    fn facade_query_engine() {
        let dir = tempdir().unwrap();
        let input = make_bam(dir.path(), 300);
        let fw = Framework::new(FrameworkConfig::with_ranks(2));
        // Preprocess once, then serve queries off the shard directory.
        let conv = ngs_converter::BamConverter::new(fw.config.convert.clone());
        let prep = conv.preprocess(&input, dir.path().join("shards")).unwrap();
        let engine = fw.query_engine(prep.bamx_path.parent().unwrap()).unwrap();
        assert_eq!(engine.store().datasets().unwrap(), vec!["input"]);
        let ticket = engine
            .submit(ngs_query::QueryRequest {
                dataset: "input".into(),
                region: "chr1".into(),
                kind: ngs_query::QueryKind::Coverage { bin_size: 25 },
                deadline: None,
                class: ngs_query::QueryClass::Interactive,
            })
            .unwrap();
        match ticket.wait().outcome.unwrap() {
            ngs_query::QueryOutcome::Coverage { records, .. } => assert!(records > 0),
            other => panic!("expected Coverage, got {other:?}"),
        }
        let stats = engine.drain();
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn facade_streaming_pipeline_matches_batch_conversion() {
        let dir = tempdir().unwrap();
        let input = make_bam(dir.path(), 350);
        let fw = Framework::new(FrameworkConfig::with_ranks(2));
        let conv = ngs_converter::BamConverter::new(ConvertConfig::with_ranks(1));
        let prep = conv.preprocess(&input, dir.path().join("shards")).unwrap();

        let batch =
            conv.convert_bamx(&prep.bamx_path, TargetFormat::Bed, dir.path().join("batch"))
                .unwrap();
        let run = fw
            .pipeline()
            .convert_file(&prep.bamx_path, TargetFormat::Bed, dir.path().join("stream"))
            .unwrap();
        assert_eq!(run.records_in, 350);
        assert!(run.quarantined.is_empty());
        assert_eq!(
            std::fs::read(&run.path).unwrap(),
            std::fs::read(&batch.outputs[0]).unwrap(),
            "facade streaming output must match the batch converter"
        );
    }

    #[test]
    fn facade_histogram_denoise_fdr() {
        let dir = tempdir().unwrap();
        let input = make_sam(dir.path(), 400);
        let mut config = FrameworkConfig::with_ranks(2);
        config.nlmeans = NlMeansParams { search_radius: 5, half_patch: 2, sigma: 5.0 };
        let fw = Framework::new(config);
        let hist = fw.histogram_from_sam(&input).unwrap();
        assert!(!hist.is_empty());
        assert!(hist.bins.iter().sum::<f64>() > 0.0);
        let denoised = fw.denoise(&hist);
        assert_eq!(denoised.len(), hist.len());
        let fdr = fw.fdr(&denoised, 5, NullModel::Poisson, 2.0, 1);
        assert!(fdr >= 0.0);
    }

    #[test]
    fn histogram_matches_direct_accumulation() {
        // Histogram via parallel BEDGRAPH == histogram straight from
        // records: the converter→stats hand-off loses nothing.
        let dir = tempdir().unwrap();
        let ds = Dataset::generate(&DatasetSpec { n_records: 250, ..Default::default() });
        let input = dir.path().join("input.sam");
        ds.write_sam(&input).unwrap();
        let fw = Framework::new(FrameworkConfig::with_ranks(3));
        let via_converter = fw.histogram_from_sam(&input).unwrap();
        let direct =
            CoverageHistogram::from_records(&ds.header(), fw.config.bin_size, &ds.records);
        assert_eq!(via_converter.len(), direct.len());
        for (a, b) in via_converter.bins.iter().zip(&direct.bins) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn analyze_pipeline_runs() {
        let dir = tempdir().unwrap();
        let input = make_sam(dir.path(), 200);
        let mut config = FrameworkConfig::with_ranks(2);
        config.nlmeans = NlMeansParams { search_radius: 3, half_patch: 1, sigma: 5.0 };
        let fw = Framework::new(config);
        let outputs =
            analyze_sam(&fw, &input, TargetFormat::Bed, dir.path().join("out"), 4, 2.0).unwrap();
        assert_eq!(outputs.converted.len(), 2);
        assert!(!outputs.denoised.is_empty());
    }
}
