//! Record parsing and the sequential oracles every served record is checked
//! against, outside the timed region.

use clique_core::graphs::{iso, Pattern};
use clique_core::registry::{self, JobInput, RunOptions};
use clique_core::sim::linalg::IntMatrix;
use clique_serve::JobSpec;

/// The ledger totals a record carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub rounds: u64,
    pub total_bits: u64,
}

/// Splits a record into its output digest and its ledger totals.
pub fn split_record(record: &str) -> Result<(&str, Ledger), String> {
    let body = record
        .strip_prefix("{\"output\":")
        .ok_or("record does not start with an output digest")?;
    let cut = body
        .rfind(",\"rounds\":")
        .ok_or("record has no rounds field")?;
    let ledger = Ledger {
        rounds: field_u64(&body[cut..], "\"rounds\":")?,
        total_bits: field_u64(&body[cut..], "\"total_bits\":")?,
    };
    Ok((&body[..cut], ledger))
}

/// The unsigned integer that follows the first `key` in `text`.
fn field_u64(text: &str, key: &str) -> Result<u64, String> {
    let at = text.find(key).ok_or_else(|| format!("missing {key}"))? + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("{key} is not an integer"))
}

/// Every integer in `text`, in reading order (a leading `-` kept).
fn integers(text: &str) -> Vec<i64> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let negative = bytes[i] == b'-';
        let start = if negative { i + 1 } else { i };
        let mut end = start;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if end > start {
            let value: i64 = text[start..end].parse().unwrap_or(i64::MAX);
            out.push(if negative { -value } else { value });
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// The text of the JSON value that follows `key` up to the matching close
/// bracket, or up to the next comma or brace for a scalar.
fn value_after<'a>(output: &'a str, key: &str) -> Result<&'a str, String> {
    let at = output.find(key).ok_or_else(|| format!("missing {key}"))? + key.len();
    let rest = &output[at..];
    if rest.starts_with('[') {
        let mut depth = 0usize;
        for (i, c) in rest.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(&rest[..=i]);
                    }
                }
                _ => {}
            }
        }
        return Err(format!("unterminated {key}"));
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Ok(&rest[..end])
}

/// The registry input a spec names.
pub fn input_of(spec: &JobSpec) -> Result<JobInput, String> {
    let entry =
        registry::find(&spec.protocol).ok_or_else(|| format!("unknown {}", spec.protocol))?;
    registry::generate_input(entry.kind, &spec.family, spec.n, spec.seed, spec.max_weight)
        .ok_or_else(|| format!("unknown family {}", spec.family))
}

/// Checks a served record's output against the sequential oracle for its
/// spec: `iso::triangle_count`, `iso::bfs_distances`,
/// `iso::minimum_spanning_forest`, and for C4 sketch verdicts the
/// `c4-full-broadcast` protocol (itself checked against `iso`).
pub fn check(spec: &JobSpec, record: &str) -> Result<(), String> {
    let (output, _) = split_record(record)?;
    let input = input_of(spec)?;
    match (spec.protocol.as_str(), &input) {
        ("triangle-count" | "triangle-count-fast", JobInput::Unweighted(g)) => {
            let got: u64 = value_after(output, "\"triangles\":")?
                .parse()
                .map_err(|_| "triangle count is not an integer")?;
            expect_eq("triangles", got, iso::triangle_count(g))
        }
        ("apsp" | "apsp-fast", JobInput::Unweighted(g)) => {
            let got = integers(value_after(output, "\"dist\":")?);
            let oracle = iso::bfs_distances(g);
            let n = g.vertex_count();
            expect_eq("distance entries", got.len(), n * n)?;
            for (idx, &value) in got.iter().enumerate() {
                let want = match oracle.get(idx / n, idx % n) {
                    IntMatrix::INFINITY => -1,
                    d => i64::try_from(d).map_err(|_| "distance overflows")?,
                };
                if value != want {
                    return Err(format!(
                        "dist[{}][{}] = {value}, oracle {want}",
                        idx / n,
                        idx % n
                    ));
                }
            }
            Ok(())
        }
        ("mst", JobInput::Weighted(g)) => {
            let oracle = iso::minimum_spanning_forest(g);
            let flat = integers(value_after(output, "\"edges\":")?);
            let want: Vec<i64> = oracle
                .edges
                .iter()
                .flat_map(|&(u, v, w)| [u as i64, v as i64, w as i64])
                .collect();
            if flat != want {
                return Err("spanning forest differs from Kruskal".to_owned());
            }
            let total: u64 = value_after(output, "\"total_weight\":")?
                .parse()
                .map_err(|_| "total weight is not an integer")?;
            expect_eq("total weight", total, oracle.total_weight)
        }
        ("c4-turan-sketch", JobInput::Unweighted(g)) => {
            let reference = registry::find("c4-full-broadcast")
                .ok_or("no c4-full-broadcast entry")?
                .run(
                    &input,
                    &RunOptions {
                        bandwidth: spec.bandwidth,
                        ..RunOptions::default()
                    },
                )
                .map_err(|e| e.to_string())?;
            let want = value_after(&reference.output, "\"contains\":")?;
            let got = value_after(output, "\"contains\":")?;
            expect_eq("C4 verdict", got, want)?;
            check_c4_witness(g, output)
        }
        ("c4-full-broadcast", JobInput::Unweighted(g)) => {
            let got = value_after(output, "\"contains\":")? == "true";
            let want = iso::contains_subgraph(g, &Pattern::Cycle(4).graph());
            expect_eq("C4 verdict", got, want)?;
            check_c4_witness(g, output)
        }
        (other, _) => Err(format!("no oracle for protocol {other}")),
    }
}

/// A witness, when given, must be a real C4 copy in the input.
fn check_c4_witness(g: &clique_core::graphs::Graph, output: &str) -> Result<(), String> {
    let witness = value_after(output, "\"witness\":")?;
    if witness == "null" {
        return Ok(());
    }
    let w: Vec<usize> = integers(witness)
        .into_iter()
        .map(|v| usize::try_from(v).unwrap_or(usize::MAX))
        .collect();
    let pattern = Pattern::Cycle(4).graph();
    let mut distinct = w.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let valid = w.len() == 4
        && distinct.len() == 4
        && w.iter().all(|&v| v < g.vertex_count())
        && pattern.edges().all(|(a, b)| g.has_edge(w[a], w[b]));
    if valid {
        Ok(())
    } else {
        Err(format!("witness {witness} is not a C4 of the input"))
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, oracle {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ledger_and_integers() {
        let record = "{\"output\":{\"dist\":[[0,1],[1,-1]]},\"rounds\":12,\"total_bits\":340,\
                      \"messages\":3,\"max_link_bits_per_round\":4,\"phases\":2,\"phase_digest\":\"00\"}";
        let (output, ledger) = split_record(record).unwrap();
        assert_eq!(output, "{\"dist\":[[0,1],[1,-1]]}");
        assert_eq!(
            ledger,
            Ledger {
                rounds: 12,
                total_bits: 340
            }
        );
        assert_eq!(
            integers(value_after(output, "\"dist\":").unwrap()),
            vec![0, 1, 1, -1]
        );
    }

    #[test]
    fn served_records_pass_their_oracles() {
        for spec in [
            JobSpec::unweighted("triangle-count", "erdos_renyi(p=0.5)", 12, 4, 3),
            JobSpec::unweighted("apsp-fast", "random_tree", 10, 4, 5),
            JobSpec::weighted("mst", "weighted_erdos_renyi(p=0.2)", 12, 4, 9, 7),
            JobSpec::unweighted("c4-turan-sketch", "erdos_renyi(p=0.5)", 12, 4, 1),
            JobSpec::unweighted("c4-full-broadcast", "erdos_renyi(p=0.15)", 12, 4, 2),
        ] {
            let record = clique_serve::Server::run_direct(&spec).unwrap();
            check(&spec, &record).unwrap_or_else(|e| panic!("{}: {e}", spec.protocol));
        }
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let spec = JobSpec::unweighted("triangle-count", "complete", 6, 4, 0);
        let record = clique_serve::Server::run_direct(&spec).unwrap();
        let forged = record.replace("\"triangles\":20", "\"triangles\":21");
        assert_ne!(record, forged);
        assert!(check(&spec, &forged).is_err());
    }
}
