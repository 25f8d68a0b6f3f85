//! Correctness checks, run outside every timed window. Any mismatch is an
//! error and the benchmark exits non-zero.

use forum_obs::json::Json;
use intentmatch::pipeline::{QueryScratch, RefinedSegment};
use intentmatch::{IntentPipeline, PostCollection, StoreView};

pub type Result = std::result::Result<(), String>;

/// A ranking with its scores as raw bits, for exact comparison.
fn bits(ranking: &[(u32, f64)]) -> Vec<(u32, u64)> {
    ranking.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// Two rankings are identical, scores bit for bit.
pub fn same_ranking(what: &str, q: usize, got: &[(u32, f64)], want: &[(u32, f64)]) -> Result {
    if bits(got) == bits(want) {
        Ok(())
    } else {
        Err(format!(
            "{what}: ranking of doc {q} differs\n  got  {got:?}\n  want {want:?}"
        ))
    }
}

/// Relative score tolerance between two independent builds of the same
/// collection. `IndexBuilder::add_unit` sums a unit's log-tf weights in
/// `HashMap` iteration order, so separately built indices can differ in
/// the last bits of a unit's denominator (measured: one query in about a
/// hundred differs, by one or two ulps). Rankings from one build or one
/// store are still compared bit for bit.
const CROSS_BUILD_REL_TOL: f64 = 1e-12;

/// Rankings from two independent builds agree: the same documents in the
/// same order, scores equal to within [`CROSS_BUILD_REL_TOL`].
pub fn same_ranking_across_builds(
    what: &str,
    q: usize,
    got: &[(u32, f64)],
    want: &[(u32, f64)],
) -> Result {
    let close = |a: f64, b: f64| (a - b).abs() <= CROSS_BUILD_REL_TOL * a.abs().max(b.abs());
    let agree = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && close(g.1, w.1));
    if agree {
        Ok(())
    } else {
        Err(format!(
            "{what}: ranking of doc {q} differs\n  got  {got:?}\n  want {want:?}"
        ))
    }
}

/// Parses a `/query` response body into its ranking.
pub fn parse_ranking(body: &[u8]) -> std::result::Result<Vec<(u32, f64)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("response is not JSON: {e}"))?;
    let results = json
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("response has no results array: {text}"))?;
    results
        .iter()
        .map(|r| {
            let doc = r.get("doc").and_then(Json::as_u64);
            let score = r.get("score").and_then(Json::as_f64);
            match (doc, score) {
                (Some(d), Some(s)) => Ok((d as u32, s)),
                _ => Err(format!("malformed result entry in {text}")),
            }
        })
        .collect()
}

/// A served response equals the in-process answer bit for bit.
pub fn response_matches(what: &str, q: usize, body: &[u8], want: &[(u32, f64)]) -> Result {
    same_ranking(what, q, &parse_ranking(body)?, want)
}

fn same_segments(a: &[RefinedSegment], b: &[RefinedSegment]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.cluster == y.cluster && x.ranges == y.ranges)
}

fn same_centroids(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// Every document's refined segments (cluster labels and sentence
/// ranges) agree.
pub fn same_labels(a: &[Vec<RefinedSegment>], b: &[Vec<RefinedSegment>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_segments(x, y))
}

/// The store written by `intentmatch index` holds the build an in-process
/// `IntentPipeline::build` produces: bit-identical raw segmentations,
/// refined segments (cluster labels), centroids and noise count, and the
/// same rankings on `sample`.
pub fn store_matches_build(
    view: &StoreView,
    collection: &PostCollection,
    pipeline: &IntentPipeline,
    sample: &[usize],
) -> Result {
    if view.num_docs() != collection.len() || view.num_clusters() != pipeline.num_clusters() {
        return Err(format!(
            "store has {} docs / {} clusters, in-process build {} / {}",
            view.num_docs(),
            view.num_clusters(),
            collection.len(),
            pipeline.num_clusters()
        ));
    }
    let raw = view.raw_segmentations().map_err(|e| e.to_string())?;
    if raw != pipeline.raw_segmentations {
        return Err("store raw segmentations differ from the in-process build".into());
    }
    for (q, want) in pipeline.doc_segments.iter().enumerate() {
        let got = view.doc_segments(q).map_err(|e| e.to_string())?;
        if !same_segments(&got, want) {
            return Err(format!("store refined segments of doc {q} differ"));
        }
    }
    let centroids = view.centroids().map_err(|e| e.to_string())?;
    if !same_centroids(&centroids, &pipeline.centroids) || view.num_noise() != pipeline.num_noise {
        return Err("store centroids or noise count differ from the in-process build".into());
    }
    let mut scratch = QueryScratch::new();
    for &q in sample {
        let got = view.top_k(q, 5, &mut scratch).map_err(|e| e.to_string())?;
        same_ranking_across_builds(
            "store vs in-process build",
            q,
            &got,
            &pipeline.top_k(collection, q, 5),
        )?;
    }
    Ok(())
}

/// Two in-process builds of one collection agree: labels, index sizes and
/// rankings on `sample`.
pub fn builds_match(
    what: &str,
    collection: &PostCollection,
    got: &IntentPipeline,
    want: &IntentPipeline,
    sample: &[usize],
) -> Result {
    let labels_match = got.raw_segmentations == want.raw_segmentations
        && same_labels(&got.doc_segments, &want.doc_segments)
        && same_centroids(&got.centroids, &want.centroids)
        && got.num_noise == want.num_noise;
    if !labels_match {
        return Err(format!("{what}: segmentations, labels or centroids differ"));
    }
    let sizes = |p: &IntentPipeline| -> Vec<(usize, usize)> {
        p.clusters
            .iter()
            .map(|c| (c.index.num_units(), c.index.num_postings()))
            .collect()
    };
    if sizes(got) != sizes(want) {
        return Err(format!("{what}: cluster index sizes differ"));
    }
    for &q in sample {
        same_ranking_across_builds(
            what,
            q,
            &got.top_k(collection, q, 5),
            &want.top_k(collection, q, 5),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rankings_compare_scores_bit_for_bit() {
        let a = [(3u32, 0.5f64), (1, 0.25)];
        assert!(same_ranking("t", 0, &a, &a).is_ok());
        let b = [(3u32, 0.5f64 + f64::EPSILON), (1, 0.25)];
        assert!(same_ranking("t", 0, &a, &b).is_err());
    }

    #[test]
    fn cross_build_rankings_allow_last_bit_differences_only() {
        let a = [(3u32, 1.7843384288534219f64), (1, 0.25)];
        let b = [(3u32, 1.7843384288534223f64), (1, 0.25)];
        assert!(same_ranking("t", 0, &a, &b).is_err());
        assert!(same_ranking_across_builds("t", 0, &a, &b).is_ok());
        let reordered = [(1u32, 0.25f64), (3, 1.7843384288534219)];
        assert!(same_ranking_across_builds("t", 0, &a, &reordered).is_err());
        let off = [(3u32, 1.7843384f64), (1, 0.25)];
        assert!(same_ranking_across_builds("t", 0, &a, &off).is_err());
    }

    #[test]
    fn parses_the_query_response_shape() {
        let body = br#"{"query":4,"k":2,"results":[{"rank":1,"doc":9,"score":0.1},{"rank":2,"doc":2,"score":0.05}]}"#;
        assert_eq!(parse_ranking(body).unwrap(), vec![(9, 0.1), (2, 0.05)]);
        assert!(parse_ranking(b"{}").is_err());
    }
}
