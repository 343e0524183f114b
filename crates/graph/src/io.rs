//! Graph serialization: text edge lists and a compact binary format.
//!
//! Experiment binaries can persist generated graphs so that repeated
//! runs (e.g. re-running Table 2 with a different threshold) reuse the
//! same workload instead of regenerating it.

use crate::csr::CsrGraph;
use std::io::{self, BufReader, BufWriter, Read, Write};

/// Magic header of the binary format ("DPRG" + version 1).
const MAGIC: &[u8; 8] = b"DPRG\x00\x00\x00\x01";

/// Writes a graph as a whitespace-separated text edge list with a
/// `# nodes <n>` header line. Human-readable, interoperable with
/// standard graph tooling.
pub fn write_edge_list<W: Write>(g: &CsrGraph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# nodes {}", g.num_nodes())?;
    for e in g.edges() {
        writeln!(w, "{} {}", e.from.0, e.to.0)?;
    }
    w.flush()
}

/// Writes a graph in the compact binary format: magic, node count,
/// edge count, degree array (u32 LE), target array (u32 LE).
pub fn write_binary<W: Write>(g: &CsrGraph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for v in g.nodes() {
        w.write_all(&(g.out_degree(v) as u32).to_le_bytes())?;
    }
    for v in g.nodes() {
        for &t in g.out_neighbors(v) {
            w.write_all(&t.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Most entries [`read_binary`] reserves ahead of the data: the header
/// is input like the rest, so it sizes nothing by itself. Past this the
/// vectors grow as entries actually arrive, and a header that promises
/// more than the body holds costs one small reservation and ends in
/// `UnexpectedEof`.
const MAX_PREALLOC: usize = 1 << 16;

/// Reads a graph written by [`write_binary`].
///
/// Total over its input: a bad magic, counts that do not fit the
/// platform, a degree sum that disagrees with the edge count, a target
/// out of range or a row that is not ascending is `InvalidData`, a
/// short body is `UnexpectedEof`; nothing in the input panics or
/// reserves memory the body does not fill.
pub fn read_binary<R: Read>(r: R) -> io::Result<CsrGraph> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad_data("bad magic / unsupported version"));
    }
    let n = usize::try_from(read_u64(&mut r)?).map_err(|_| bad_data("node count too large"))?;
    let m = usize::try_from(read_u64(&mut r)?).map_err(|_| bad_data("edge count too large"))?;
    let mut offsets = Vec::with_capacity(n.saturating_add(1).min(MAX_PREALLOC));
    offsets.push(0u64);
    let mut acc = 0u64;
    for _ in 0..n {
        acc = acc
            .checked_add(u64::from(read_u32(&mut r)?))
            .ok_or_else(|| bad_data("degree sum overflows"))?;
        offsets.push(acc);
    }
    if acc != m as u64 {
        return Err(bad_data("degree sum does not match edge count"));
    }
    let mut targets = Vec::with_capacity(m.min(MAX_PREALLOC));
    for row in offsets.windows(2) {
        let start = targets.len();
        for _ in row[0]..row[1] {
            let t = read_u32(&mut r)?;
            if t as usize >= n {
                return Err(bad_data("edge target out of range"));
            }
            targets.push(t);
        }
        // `CsrGraph::has_edge` binary-searches rows.
        if !targets[start..].is_sorted() {
            return Err(bad_data("adjacency row not ascending"));
        }
    }
    Ok(CsrGraph::from_parts(offsets, targets))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powerlaw::paper_graph;

    #[test]
    fn edge_list_is_a_header_then_one_line_per_edge() {
        let g = crate::builder::from_edges(
            3,
            [crate::Edge::new(0u32, 1u32), crate::Edge::new(2u32, 0u32)],
        );
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "# nodes 3\n0 1\n2 0\n");
    }

    #[test]
    fn binary_roundtrip() {
        let g = paper_graph(500, 12);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOPE\x00\x00\x00\x01rest"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = paper_graph(100, 13);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    /// A header by hand: magic, node count, edge count.
    fn header(n: u64, m: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        buf
    }

    #[test]
    fn binary_huge_header_over_short_body_is_an_error_not_an_abort() {
        // Counts no allocator could serve (and `n + 1` overflows): the
        // reader must fail on the missing body, not on the reservation.
        for (n, m) in [(u64::MAX, u64::MAX), (1 << 40, 1 << 41), (3, 1 << 40)] {
            let mut buf = header(n, m);
            buf.extend_from_slice(&[1, 0, 0, 0, 1, 0, 0, 0]);
            let err = read_binary(buf.as_slice()).unwrap_err();
            let kind = err.kind();
            assert!(
                kind == io::ErrorKind::UnexpectedEof || kind == io::ErrorKind::InvalidData,
                "{n}/{m}: {err}"
            );
        }
    }

    #[test]
    fn binary_rejects_unsorted_row() {
        // 3 nodes; row 0 = [2, 1] is descending.
        let mut buf = header(3, 3);
        for v in [2u32, 1, 0, /* targets */ 2, 1, 0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ascending"), "{err}");
        // The same rows ascending (a duplicate link included) load.
        let mut buf = header(3, 3);
        for v in [2u32, 1, 0, /* targets */ 1, 1, 0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let g = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g.out_neighbors(crate::DocId(0)), &[1, 1]);
    }
}
