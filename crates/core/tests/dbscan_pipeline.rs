//! The DBSCAN engine against the textbook reference on the pipeline's own
//! feature matrices: segment weight vectors (Eqs. 5–6) of generated tech,
//! travel and programming corpora, clustered with the parameters a build
//! uses (`eps` 0.7, `min_pts` = 2% of the points, at least 8).
//!
//! Synthetic clouds never show this shape: norms concentrated in a narrow
//! band, a large `min_pts`, and a few big clusters — so most points are
//! core and most band pairs are visited by both engine passes.

use forum_cluster::{dbscan_matrix, dbscan_reference};
use forum_corpus::{Corpus, Domain, GenConfig};
use intentmatch::pipeline::segment_feature_matrix;
use intentmatch::{PipelineConfig, PostCollection};

#[test]
fn engine_matches_reference_on_pipeline_features() {
    let pipeline = PipelineConfig::default();
    for domain in Domain::ALL {
        let corpus = Corpus::generate(&GenConfig {
            domain,
            num_posts: 300,
            seed: 11,
        });
        let collection = PostCollection::from_corpus(&corpus);
        let features = segment_feature_matrix(&collection, &pipeline);
        let n = features.len();
        let cfg = pipeline.dbscan_for(n);
        assert_eq!(cfg.eps, 0.7);
        assert_eq!(cfg.min_pts, (n / 50).max(8));
        assert!(cfg.min_pts > 8, "{domain:?}: {n} segments is too few");

        let reference = dbscan_reference(&features.to_rows(), &cfg);
        assert!(reference.num_clusters >= 1, "{domain:?}: no clusters");
        let mut dist_evals = None;
        for threads in [1usize, 2, 4, 8] {
            let got = dbscan_matrix(&features, &cfg, threads);
            assert_eq!(
                got.labels, reference.labels,
                "{domain:?}: labels diverged at threads={threads}"
            );
            assert_eq!(got.num_clusters, reference.num_clusters);
            // Both passes visit a fixed pair set: no scheduling in the count.
            assert_eq!(
                *dist_evals.get_or_insert(got.stats.dist_evals),
                got.stats.dist_evals,
                "{domain:?}: dist_evals moved at threads={threads}"
            );
        }
    }
}
