//! Mutable adjacency-list graph for document insertion and deletion.
//!
//! The incremental-update experiments (paper Sec. 3.1, 4.7) add and
//! remove documents from a live network: "when a new document is
//! inserted into the network, its pagerank is initialized to some fixed
//! constant value and update messages to its outlinks are sent", and
//! deletion sends the negated rank. [`DynamicGraph`] supports exactly
//! those mutations while keeping both out-link and in-link lists so the
//! incremental engine can propagate increments and the deletion
//! protocol can find a document's inlink sources.
//!
//! Deleted ids become tombstones rather than being compacted away —
//! document GUIDs in a P2P system are never re-assigned, and stable ids
//! keep every outstanding rank message unambiguous.

use crate::{csr::CsrGraph, DocId};

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NodeData {
    out: Vec<u32>,
    inn: Vec<u32>,
}

/// A directed graph supporting document insertion and deletion.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    nodes: Vec<Option<NodeData>>,
    num_edges: usize,
}

impl DynamicGraph {
    /// Builds a dynamic graph mirroring a static one.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut dg = DynamicGraph {
            nodes: (0..g.num_nodes())
                .map(|_| Some(NodeData::default()))
                .collect(),
            num_edges: 0,
        };
        for e in g.edges() {
            dg.push_edge_unchecked(e.from, e.to);
        }
        dg
    }

    fn push_edge_unchecked(&mut self, from: DocId, to: DocId) {
        self.nodes[from.index()].as_mut().unwrap().out.push(to.0);
        self.nodes[to.index()].as_mut().unwrap().inn.push(from.0);
        self.num_edges += 1;
    }

    /// Total id range (alive + tombstoned).
    pub fn id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `v` is a live document.
    pub fn is_alive(&self, v: DocId) -> bool {
        self.nodes.get(v.index()).is_some_and(|n| n.is_some())
    }

    fn node(&self, v: DocId) -> &NodeData {
        self.nodes[v.index()]
            .as_ref()
            .expect("document was deleted")
    }

    /// Out-links of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was deleted or never existed.
    pub fn out_links(&self, v: DocId) -> &[u32] {
        &self.node(v).out
    }

    /// Inserts a new document with the given out-links.
    ///
    /// Matches the paper's insert model: "When a new document is
    /// inserted … it can only have outlinks. Since this is a new
    /// document, there cannot be inlinks already pointing to it."
    /// Links to deleted/unknown targets are rejected.
    pub fn insert_document(&mut self, out_links: &[DocId]) -> DocId {
        for &t in out_links {
            assert!(self.is_alive(t), "out-link target {t} is not alive");
        }
        let id = DocId::from(self.nodes.len());
        self.nodes.push(Some(NodeData::default()));
        let mut seen = std::collections::HashSet::new();
        for &t in out_links {
            if t != id && seen.insert(t) {
                self.push_edge_unchecked(id, t);
            }
        }
        id
    }

    /// Deletes a document, removing all incident edges. Returns the
    /// sources that were linking to it (the peers that must stop
    /// sending it rank updates).
    pub fn delete_document(&mut self, v: DocId) -> Vec<DocId> {
        assert!(self.is_alive(v), "double delete of {v}");
        let data = self.nodes[v.index()].take().unwrap();
        self.num_edges -= data.out.len();
        for &t in &data.out {
            let inn = &mut self.nodes[t as usize].as_mut().unwrap().inn;
            let pos = inn.iter().position(|&s| s == v.0).expect("in-link desync");
            inn.swap_remove(pos);
        }
        self.num_edges -= data.inn.len();
        let mut sources = Vec::with_capacity(data.inn.len());
        for &s in &data.inn {
            let out = &mut self.nodes[s as usize].as_mut().unwrap().out;
            let pos = out.iter().position(|&t| t == v.0).expect("out-link desync");
            out.swap_remove(pos);
            sources.push(DocId(s));
        }
        sources
    }

    /// Iterator over live document ids.
    pub fn alive(&self) -> impl Iterator<Item = DocId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| DocId::from(i)))
    }

    /// Snapshot into CSR form. Tombstoned ids appear as isolated nodes
    /// so `DocId` values stay valid indices.
    pub fn to_csr(&self) -> CsrGraph {
        let mut b =
            crate::builder::GraphBuilder::new(self.nodes.len()).with_edge_capacity(self.num_edges);
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(data) = n {
                for &t in &data.out {
                    b.add_edge(i, t as usize);
                }
            }
        }
        b.build()
    }

    /// Internal consistency check used by tests and debug assertions:
    /// every out-link has a matching in-link and vice versa, and the
    /// edge count is accurate.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut edges = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            let Some(data) = n else { continue };
            edges += data.out.len();
            for &t in &data.out {
                let tn = self.nodes.get(t as usize).and_then(|x| x.as_ref());
                match tn {
                    None => return Err(format!("edge {i} -> {t} points at tombstone")),
                    Some(tn) if !tn.inn.contains(&(i as u32)) => {
                        return Err(format!("edge {i} -> {t} missing reverse in-link"))
                    }
                    _ => {}
                }
            }
            for &s in &data.inn {
                let sn = self.nodes.get(s as usize).and_then(|x| x.as_ref());
                match sn {
                    None => return Err(format!("in-link {s} -> {i} from tombstone")),
                    Some(sn) if !sn.out.contains(&(i as u32)) => {
                        return Err(format!("in-link {s} -> {i} missing forward out-link"))
                    }
                    _ => {}
                }
            }
        }
        if edges != self.num_edges {
            return Err(format!("edge count {edges} != cached {}", self.num_edges));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::Edge;

    fn base() -> DynamicGraph {
        // 0 -> 1 -> 2, 0 -> 2
        let g = from_edges(
            3,
            [
                Edge::new(0u32, 1u32),
                Edge::new(1u32, 2u32),
                Edge::new(0u32, 2u32),
            ],
        );
        DynamicGraph::from_csr(&g)
    }

    #[test]
    fn from_csr_preserves_structure() {
        let dg = base();
        assert_eq!(dg.alive().count(), 3);
        assert_eq!(dg.num_edges, 3);
        assert_eq!(dg.out_links(DocId(0)), &[1, 2]);
        assert_eq!(dg.node(DocId(2)).inn, [0, 1]);
        dg.check_invariants().unwrap();
    }

    #[test]
    fn insert_document_gets_fresh_id_and_no_inlinks() {
        let mut dg = base();
        let id = dg.insert_document(&[DocId(0), DocId(2)]);
        assert_eq!(id, DocId(3));
        assert!(dg.is_alive(id));
        assert_eq!(dg.out_links(id), &[0, 2]);
        assert!(dg.node(id).inn.is_empty());
        assert_eq!(dg.alive().count(), 4);
        assert_eq!(dg.num_edges, 5);
        dg.check_invariants().unwrap();
    }

    #[test]
    fn insert_dedups_outlinks_and_drops_self() {
        let mut dg = base();
        let id = dg.insert_document(&[DocId(0), DocId(0), DocId(1)]);
        assert_eq!(dg.out_links(id).len(), 2);
        dg.check_invariants().unwrap();
    }

    #[test]
    fn delete_document_unlinks_everything() {
        let mut dg = base();
        let sources = dg.delete_document(DocId(2));
        // Documents 1 and 0 were linking to 2 (order not guaranteed).
        let mut s: Vec<u32> = sources.iter().map(|d| d.0).collect();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
        assert!(!dg.is_alive(DocId(2)));
        assert_eq!(dg.alive().count(), 2);
        assert_eq!(dg.num_edges, 1); // only 0 -> 1 remains
        assert_eq!(dg.out_links(DocId(0)), &[1]);
        dg.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "double delete")]
    fn double_delete_panics() {
        let mut dg = base();
        dg.delete_document(DocId(2));
        dg.delete_document(DocId(2));
    }

    #[test]
    fn to_csr_keeps_tombstones_isolated() {
        let mut dg = base();
        dg.delete_document(DocId(1));
        let g = dg.to_csr();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.out_neighbors(DocId(1)), &[] as &[u32]);
        assert_eq!(g.out_neighbors(DocId(0)), &[2]);
    }

    #[test]
    fn alive_iterates_live_ids_only() {
        let mut dg = base();
        dg.delete_document(DocId(0));
        let ids: Vec<_> = dg.alive().collect();
        assert_eq!(ids, vec![DocId(1), DocId(2)]);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut dg = base();
        dg.delete_document(DocId(2));
        let id = dg.insert_document(&[]);
        assert_eq!(id, DocId(3), "tombstoned id must not be recycled");
    }

    #[test]
    #[should_panic(expected = "not alive")]
    fn insert_cannot_link_to_tombstone() {
        let mut dg = base();
        dg.delete_document(DocId(2));
        dg.insert_document(&[DocId(2)]);
    }
}
