"""Set-up probe: a fresh interpreter imports a workload's modules and reads its input.

Usage::

    python perfbench/probe.py graph GRAPH.npz   # fit-tall
    python perfbench/probe.py edges EDGES.tsv   # offline-dense

``graph`` imports the fit path and loads the graph.  ``edges`` imports the
offline pipeline's modules (ingest, graph store, fit, artifact store) and
parses the edge list's first chunk of 4096 edges (label resolution, weight
column detection).  Prints ``ready`` when done; the caller times
spawn-to-ready.
"""

import sys

if __name__ == "__main__":
    kind, path = sys.argv[1], sys.argv[2]
    import repro.core  # noqa: F401  (the fit path's import cost)

    if kind == "graph":
        from repro.graph import load_npz

        edges = load_npz(path).num_edges
    elif kind == "edges":
        from repro.graph import ingest
        from repro.graph.store import GraphStore  # noqa: F401
        from repro.serve.artifacts import ArtifactStore  # noqa: F401

        chunks = ingest.iter_edge_chunks(path, chunk_edges=4096, u_index={}, v_index={})
        chunk = next(chunks, None)
        edges = 0 if chunk is None else chunk.u.size
    else:
        sys.exit(f"unknown probe kind {kind!r}")
    if edges == 0:
        sys.exit("empty input")
    print("ready", flush=True)
