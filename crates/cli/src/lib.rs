#![warn(missing_docs)]
//! Shared helpers for the table/figure regeneration binaries.
//!
//! The binaries (`table1`, `table2`, `table3`, `figure1`, `experiment`)
//! regenerate every table and figure of the paper; see `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured records.

use symtensor_parallel::tetra::BlockIdx;
use symtensor_parallel::TetraPartition;

pub mod lint;
pub mod obsout;

/// Formats a set of 0-based indices as the paper's 1-based `{a,b,c}` sets.
pub fn fmt_set(set: &[usize]) -> String {
    let inner: Vec<String> = set.iter().map(|&x| (x + 1).to_string()).collect();
    format!("{{{}}}", inner.join(","))
}

/// Formats a block triple as the paper's 1-based `(i,j,k)`.
pub fn fmt_block(blk: &BlockIdx) -> String {
    format!("({},{},{})", blk.i + 1, blk.j + 1, blk.k + 1)
}

/// Formats a list of block triples.
pub fn fmt_blocks(blocks: &[BlockIdx]) -> String {
    let inner: Vec<String> = blocks.iter().map(fmt_block).collect();
    format!("{{{}}}", inner.join(", "))
}

/// Renders the paper's Table 1 / Table 3 layout (p, R_p, N_p, D_p) for any
/// partition.
pub fn render_processor_table(part: &TetraPartition) -> String {
    let mut out = String::new();
    out.push_str("  p | R_p              | N_p                                   | D_p\n");
    out.push_str("----+------------------+---------------------------------------+---------\n");
    for p in 0..part.num_procs() {
        let d = match part.d_set(p) {
            Some(i) => format!("{{({0},{0},{0})}}", i + 1),
            None => "{}".to_string(),
        };
        out.push_str(&format!(
            "{:3} | {:16} | {:37} | {}\n",
            p + 1,
            fmt_set(part.r_set(p)),
            fmt_blocks(part.n_set(p)),
            d
        ));
    }
    out
}

/// Renders the paper's Table 2 layout (i, Q_i).
pub fn render_rowblock_table(part: &TetraPartition) -> String {
    let mut out = String::new();
    out.push_str("  i | Q_i\n");
    out.push_str("----+------------------------------------------\n");
    for i in 0..part.num_row_blocks() {
        let q: Vec<usize> = part.q_set(i).to_vec();
        out.push_str(&format!("{:3} | {}\n", i + 1, fmt_set(&q)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_steiner::sqs8;

    #[test]
    fn set_formatting_is_one_based() {
        assert_eq!(fmt_set(&[0, 3, 7]), "{1,4,8}");
        assert_eq!(fmt_block(&BlockIdx { i: 2, j: 1, k: 0 }), "(3,2,1)");
    }

    #[test]
    fn tables_render_for_sqs8() {
        let part = TetraPartition::new(sqs8(), 56).unwrap();
        let t1 = render_processor_table(&part);
        assert!(t1.contains("{1,2,3,4}"));
        assert_eq!(t1.lines().count(), 2 + 14);
        let t2 = render_rowblock_table(&part);
        assert_eq!(t2.lines().count(), 2 + 8);
    }
}
