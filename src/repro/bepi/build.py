"""BePI-lite index construction.

Pipeline:

1. **SlashBurn-lite hub selection** — repeatedly move the highest-
   total-degree remaining nodes into the hub set until every connected
   component of the remaining subgraph fits ``max_block``. The rounds use
   the driver-side union-find (the edge list is collected once — it is
   needed for the cross matrices anyway). By default the **final**
   partition labels are recomputed with the Pregel-style Spark CC substrate
   (:func:`repro.graphs.ccomp.connected_components`); those labels
   replace the last round's local ones, they do not check them. Dense
   graphs shed few components per round, so the hub set balloons —
   exactly the density sensitivity that makes BePI's
   preprocessing explode on Orkut-like graphs (Table 2).
2. **Block packing** — components become diagonal blocks; tiny ones are
   greedily packed together (a union of disconnected components is still a
   valid diagonal block).
3. **Per-block inverses** — ``applyInPandas`` over the block-grouped edge
   relation computes ``inv(I − (1−α)P₀ᵀ|_block)`` per block in parallel,
   returning each inverse as a pickled payload row.
4. **Cross matrices** — the hub-touching edges become COO ``M12/M21/M22``.
"""
from __future__ import annotations

import pickle
import time

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro import ALPHA_DEFAULT
from repro.bepi.index import BepiIndex
from repro.graphs.ccomp import connected_components, connected_components_local
from repro.graphs.graph import Graph


def _comp_sizes(comp: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sizes of the components restricted to ``mask`` nodes."""
    labels = comp[mask]
    if labels.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unique(labels, return_counts=True)[1]


def _select_hubs(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    max_block: int,
    hub_frac: float,
    max_rounds: int = 256,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SlashBurn-lite on the driver; returns (hub ids, non-hub mask,
    union-find component labels by node id of the non-hub subgraph)."""
    tdeg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    remaining = np.ones(n, dtype=bool)
    for _ in range(max_rounds):
        k = max(1, int(hub_frac * int(remaining.sum())))
        cand = np.flatnonzero(remaining)
        # highest total degree first; node id breaks ties (determinism)
        order = cand[np.lexsort((cand, -tdeg[cand]))]
        remaining[order[:k]] = False
        keep = remaining[src] & remaining[dst]
        comp = connected_components_local(n, src[keep], dst[keep])
        sizes = _comp_sizes(comp, remaining)
        if sizes.size == 0 or sizes.max() <= max_block:
            hubs = np.flatnonzero(~remaining)
            return hubs.astype(np.int64), remaining, comp
    raise RuntimeError("SlashBurn-lite did not shrink components within round limit")


def _final_labels_spark(g: Graph, remaining: np.ndarray) -> pd.DataFrame:
    """Definitive component labels of the non-hub subgraph, via the
    Pregel-style CC substrate."""
    spark = g.spark
    rem_df = spark.createDataFrame(
        pd.DataFrame({"node": np.flatnonzero(remaining).astype(np.int64)})
    ).cache()
    sub_edges = (
        g.edges.join(rem_df.withColumnRenamed("node", "src"), "src")
        .join(rem_df.withColumnRenamed("node", "dst"), "dst")
        .select("src", "dst")
    )
    labels = connected_components(sub_edges, rem_df).toPandas()
    rem_df.unpersist()
    return labels


def _pack_blocks(labels: pd.DataFrame, max_block: int, min_block: int = 32) -> pd.DataFrame:
    """Assign each non-hub node a block id; small components are packed
    together (never split — block-diagonality requires whole components)."""
    sizes = labels.groupby("comp").size().sort_values(ascending=False)
    block_of_comp: dict[int, int] = {}
    next_block = 0
    open_block, open_fill = None, 0
    for comp, sz in sizes.items():
        if sz >= min_block:
            block_of_comp[comp] = next_block
            next_block += 1
        else:
            if open_block is None or open_fill + sz > max(max_block, min_block):
                open_block, open_fill = next_block, 0
                next_block += 1
            block_of_comp[comp] = open_block
            open_fill += sz
    out = labels.copy()
    out["block"] = out["comp"].map(block_of_comp)
    return out[["node", "block"]]


def _block_inverses(
    g: Graph, assign: pd.DataFrame, alpha: float
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """[(block, nodes_sorted, inverse)] via a grouped pandas UDF.

    The grouped relation carries one row per intra-block edge
    ``(block, src, dst, deg_src)`` plus one marker row per node
    ``(block, node, -1, deg)`` so empty-adjacency nodes still appear.
    """
    spark = g.spark
    assign_df = spark.createDataFrame(assign).cache()
    deg = g.degrees
    edge_rows = (
        g.edges.join(assign_df.withColumnRenamed("node", "src").withColumnRenamed("block", "b1"), "src")
        .join(assign_df.withColumnRenamed("node", "dst").withColumnRenamed("block", "b2"), "dst")
        .where(F.col("b1") == F.col("b2"))
        .join(deg.withColumnRenamed("node", "src"), "src")
        .select(F.col("b1").alias("block"), "src", "dst", F.col("deg").cast("long").alias("deg"))
    )
    node_rows = assign_df.join(deg, "node").select(
        "block", F.col("node").alias("src"), F.lit(-1).cast("long").alias("dst"),
        F.col("deg").cast("long").alias("deg"),
    )
    grouped = edge_rows.unionByName(node_rows)

    def _invert(pdf: pd.DataFrame) -> pd.DataFrame:
        block = int(pdf["block"].iloc[0])
        nodes = np.sort(pdf.loc[pdf["dst"] < 0, "src"].unique())
        pos = {int(v): i for i, v in enumerate(nodes)}
        nb = len(nodes)
        H = np.eye(nb)
        e = pdf[pdf["dst"] >= 0]
        if len(e):
            rows = np.fromiter((pos[int(d)] for d in e["dst"]), dtype=np.int64, count=len(e))
            cols = np.fromiter((pos[int(s)] for s in e["src"]), dtype=np.int64, count=len(e))
            # M[dst, src] = (1−α)/d_src; dead rows of P₀ are zero (d>0 here)
            np.add.at(H, (rows, cols), -(1.0 - alpha) / e["deg"].to_numpy(np.float64))
        inv = np.linalg.inv(H)
        return pd.DataFrame({"block": [block], "payload": [pickle.dumps((nodes, inv))]})

    rows = (
        grouped.groupBy("block")
        .applyInPandas(_invert, schema="block long, payload binary")
        .collect()
    )
    assign_df.unpersist()
    out = []
    for r in rows:
        nodes, inv = pickle.loads(bytes(r["payload"]))
        out.append((int(r["block"]), nodes, inv))
    out.sort(key=lambda t: t[0])
    return out


def _coo_from_edges(
    e: pd.DataFrame, row_pos: np.ndarray, col_pos: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M[dst, src] = (1−α)/deg_src over the given edge subset (positions
    are local; caller pre-filtered so none is −1)."""
    rows = row_pos[e["dst"].to_numpy(np.int64)]
    cols = col_pos[e["src"].to_numpy(np.int64)]
    vals = (1.0 - alpha) / e["deg"].to_numpy(np.float64)
    return rows.astype(np.int64), cols.astype(np.int64), vals


def build_bepi_index(
    g: Graph,
    *,
    alpha: float = ALPHA_DEFAULT,
    max_block: int = 1024,
    hub_frac: float = 0.02,
    final_cc: str = "spark",
    path: str | None = None,
) -> BepiIndex:
    """Build (and optionally persist) the BePI-lite index for ``g``.

    ``final_cc``: "spark" recomputes the partition labels with the Pregel CC
    substrate; "local" keeps the driver union-find labels of the last
    hub-selection round (faster, used by some benchmarks).
    """
    t0 = time.perf_counter()
    edges = (
        g.edges.join(g.degrees.withColumnRenamed("node", "src"), "src")
        .select("src", "dst", F.col("deg").cast("long").alias("deg"))
        .toPandas()
    )
    e_src = edges["src"].to_numpy(np.int64)
    e_dst = edges["dst"].to_numpy(np.int64)
    hubs, remaining, comp = _select_hubs(g.n, e_src, e_dst, max_block, hub_frac)

    if remaining.any():
        if final_cc == "spark":
            labels = _final_labels_spark(g, remaining)
        else:
            nodes = np.flatnonzero(remaining)
            labels = pd.DataFrame({"node": nodes, "comp": comp[nodes]})
        assign = _pack_blocks(labels, max_block)
        inv_list = _block_inverses(g, assign, alpha)
    else:
        inv_list = []

    nonhub = (
        np.concatenate([nodes for _, nodes, _ in inv_list])
        if inv_list
        else np.array([], dtype=np.int64)
    )
    block_sizes = np.array([len(nodes) for _, nodes, _ in inv_list], dtype=np.int64)
    inverses = [inv for _, _, inv in inv_list]

    hub_pos = np.full(g.n, -1, dtype=np.int64)
    hub_pos[hubs] = np.arange(len(hubs))
    nonhub_pos = np.full(g.n, -1, dtype=np.int64)
    nonhub_pos[nonhub] = np.arange(len(nonhub))

    is_hub_src = hub_pos[e_src] >= 0
    is_hub_dst = hub_pos[e_dst] >= 0
    m12 = _coo_from_edges(edges[is_hub_src & ~is_hub_dst], nonhub_pos, hub_pos, alpha)
    m21 = _coo_from_edges(edges[~is_hub_src & is_hub_dst], hub_pos, nonhub_pos, alpha)
    m22 = _coo_from_edges(edges[is_hub_src & is_hub_dst], hub_pos, hub_pos, alpha)

    dead = np.array(sorted(r["node"] for r in g.dead_ends().collect()), dtype=np.int64)
    idx = BepiIndex(
        n=g.n,
        alpha=alpha,
        hubs=hubs,
        nonhub=nonhub,
        block_sizes=block_sizes,
        inverses=inverses,
        m12=m12,
        m21=m21,
        m22=m22,
        dead=dead,
        build_seconds=time.perf_counter() - t0,
        stats={
            "n_hubs": int(len(hubs)),
            "n_blocks": int(len(block_sizes)),
            "max_block": int(block_sizes.max()) if len(block_sizes) else 0,
        },
    )
    if path is not None:
        idx.save(path)
        idx.build_seconds = time.perf_counter() - t0
    return idx
