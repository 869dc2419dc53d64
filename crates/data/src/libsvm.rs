//! LIBSVM text format.
//!
//! The paper's artifact distributes dataset partitions as LIBSVM files on
//! S3 (`<label> <index>:<value> ...`, 1-based indices). The reader here
//! parses into a sparse dataset and the writer serializes either layout;
//! both are used by the `custom_dataset` example and the loader tests.

use crate::dataset::{Dataset, SparseDataset};
use lml_linalg::SparseVec;
use std::fmt::Write as _;

/// Parse error for LIBSVM input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "libsvm parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse LIBSVM text into a sparse dataset. `dim` is the feature-space size;
/// pass 0 to infer it from the largest index seen.
pub fn parse_sparse(text: &str, dim: usize) -> Result<SparseDataset, ParseError> {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut max_idx = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label: f64 = parts
            .next()
            .expect("non-empty line has a first token")
            .parse()
            .map_err(|e| ParseError {
                line: lineno + 1,
                message: format!("bad label: {e}"),
            })?;
        let mut pairs = Vec::new();
        for tok in parts {
            let (i_str, v_str) = tok.split_once(':').ok_or_else(|| ParseError {
                line: lineno + 1,
                message: format!("expected index:value, got {tok:?}"),
            })?;
            let idx: usize = i_str.parse().map_err(|e| ParseError {
                line: lineno + 1,
                message: format!("bad index {i_str:?}: {e}"),
            })?;
            if idx == 0 {
                return Err(ParseError {
                    line: lineno + 1,
                    message: "libsvm indices are 1-based; found 0".into(),
                });
            }
            let val: f64 = v_str.parse().map_err(|e| ParseError {
                line: lineno + 1,
                message: format!("bad value {v_str:?}: {e}"),
            })?;
            max_idx = max_idx.max(idx);
            pairs.push(((idx - 1) as u32, val));
        }
        rows.push(SparseVec::from_pairs(pairs));
        labels.push(label);
    }
    let dim = if dim == 0 { max_idx } else { dim };
    if max_idx > dim {
        return Err(ParseError {
            line: 0,
            message: format!("index {max_idx} exceeds declared dimension {dim}"),
        });
    }
    Ok(SparseDataset::new(rows, labels, dim))
}

/// Serialize a dataset to LIBSVM text (1-based indices; dense zeros are
/// omitted, matching how the paper's repo ships Higgs).
pub fn write(data: &Dataset) -> String {
    let mut out = String::new();
    for r in 0..data.len() {
        let label = data.label(r);
        if label == label.trunc() {
            let _ = write!(out, "{}", label as i64);
        } else {
            let _ = write!(out, "{label}");
        }
        match data.row(r) {
            crate::dataset::Row::Dense(x) => {
                for (j, &v) in x.iter().enumerate() {
                    // Sparse format omits exact zeros. lml-analyze: allow(float-eq)
                    if v != 0.0 {
                        let _ = write!(out, " {}:{v}", j + 1);
                    }
                }
            }
            crate::dataset::Row::Sparse(sv) => {
                for (i, v) in sv.iter() {
                    let _ = write!(out, " {}:{v}", i + 1);
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "+1 1:0.5 3:1.5\n-1 2:2.0\n# comment\n\n+1 1:1.0\n";

    #[test]
    fn parse_sparse_basic() {
        let d = parse_sparse(SAMPLE, 0).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.labels(), &[1.0, -1.0, 1.0]);
        assert_eq!(d.row(0).indices(), &[0, 2]);
        assert_eq!(d.row(0).values(), &[0.5, 1.5]);
    }

    #[test]
    fn roundtrip_sparse() {
        let d = parse_sparse(SAMPLE, 5).unwrap();
        let text = write(&Dataset::Sparse(d.clone()));
        let d2 = parse_sparse(&text, 5).unwrap();
        assert_eq!(d2.len(), d.len());
        for i in 0..d.len() {
            assert_eq!(d.row(i), d2.row(i));
            assert_eq!(d.label(i), d2.label(i));
        }
    }

    #[test]
    fn error_on_zero_index() {
        let e = parse_sparse("+1 0:1.0\n", 0).unwrap_err();
        assert!(e.message.contains("1-based"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_on_malformed_pair() {
        assert!(parse_sparse("+1 nonsense\n", 0).is_err());
        assert!(parse_sparse("+1 2:abc\n", 0).is_err());
        assert!(parse_sparse("abc 1:1\n", 0).is_err());
    }

    #[test]
    fn error_when_index_exceeds_dim() {
        let e = parse_sparse("+1 10:1.0\n", 5).unwrap_err();
        assert!(e.message.contains("exceeds"));
    }

    #[test]
    fn fractional_labels_preserved() {
        let d = parse_sparse("2.5 1:1.0\n", 0).unwrap();
        let text = write(&Dataset::Sparse(d));
        assert!(text.starts_with("2.5 "));
    }
}
