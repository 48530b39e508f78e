"""Run reports (versioned JSON) and the PC1/PC2 scatter (standalone SVG).

Both artifacts are byte-deterministic for fixed inputs: the JSON is dumped
with sorted keys and carries no wall-clock fields, and the SVG formats
every coordinate with fixed precision. Run metadata (seeds, replicate
counts, thresholds, input digests) is embedded so a report is sufficient
to reproduce itself.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from ._version import __version__
from .metrics import MeaningClassMetrics
from .multivariate import ClusterAssignment, PcaResult
from .ranking import SuitabilityRanking, WordlistSelection

REPORT_SCHEMA_VERSION = 1


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data, as ``xml.sax.saxutils.escape``.

    Written out here because importing ``xml.sax.saxutils`` also imports
    ``urllib.request`` and with it ``http.client``, ``ssl`` and ``email``.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def report_schema() -> dict:
    """The published JSON Schema for report documents (v1)."""
    text = (
        resources.files("lexiphylo").joinpath("schema/report_v1.json").read_text("utf-8")
    )
    return json.loads(text)


def _check_row_sets(
    metrics: list[MeaningClassMetrics],
    pca: PcaResult,
    clusters: ClusterAssignment,
    ranking: SuitabilityRanking,
) -> None:
    metric_concepts = {m.concept for m in metrics}
    pca_concepts = set(pca.row_labels)
    rank_concepts = {row.concept for row in ranking.rows}
    for concept in sorted(metric_concepts - pca_concepts):
        raise ValueError(f"concept {concept!r} missing from PCA scores")
    for concept in sorted(pca_concepts - metric_concepts):
        raise ValueError(f"concept {concept!r} missing from metrics")
    for concept in sorted(pca_concepts - rank_concepts):
        raise ValueError(f"concept {concept!r} missing from ranking")
    for concept in sorted(rank_concepts - pca_concepts):
        raise ValueError(f"concept {concept!r} missing from PCA scores")
    if len(clusters.labels) != len(pca.row_labels):
        raise ValueError("cluster labels do not match the PCA rows")


def to_json(document: dict) -> str:
    """The one JSON format of the report and the stage caches.

    Sorted keys and a fixed indent make the text byte-deterministic; numpy
    arrays are written as (nested) lists.
    """
    return json.dumps(document, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


def emit_report(
    metrics: list[MeaningClassMetrics],
    pca: PcaResult,
    clusters: ClusterAssignment,
    ranking: SuitabilityRanking,
    selection: WordlistSelection,
    metadata: dict,
) -> str:
    """Assemble the single self-describing report document as JSON text.

    ``metadata`` is the caller's run block (seeds, n_reps, thresholds,
    input digests); it is embedded verbatim under ``"run"``. Each concept's
    ``mean_D_status`` is ``"imputed"`` when its record has no mean D (every
    class was skipped) and ``"computed"`` otherwise. Class entries, ranking
    rows, the selection and the cluster assignment are their records'
    fields as stored (``vars``), not deep copies.
    """
    _check_row_sets(metrics, pca, clusters, ranking)

    concept_blocks = []
    for m in sorted(metrics, key=lambda m: m.concept):
        classes = [
            {"cognate_class": cls, **vars(res)}
            for cls, res in sorted(m.class_results.items())
        ]
        skipped = [
            {"cognate_class": cls, "reason": reason}
            for cls, reason in sorted(m.class_skips.items())
        ]
        concept_blocks.append(
            {
                "concept": m.concept,
                "n_loans": m.n_loans,
                "mean_D": m.mean_d,
                "mean_D_status": "imputed" if m.mean_d is None else "computed",
                "n_singletons": m.n_singletons,
                "missing_fraction": m.missing_fraction,
                "mean_class_size": m.mean_class_size,
                "max_class_size": m.max_class_size,
                "n_classes": m.n_classes,
                "classes": classes,
                "skipped_classes": skipped,
            }
        )

    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": {"name": "lexiphylo", "version": __version__},
        "run": metadata,
        "concepts": concept_blocks,
        "pca": {
            "variables": pca.variables,
            "eigenvalues": pca.eigenvalues,
            "explained_variance": pca.explained_variance,
            "loadings": pca.loadings,
            "contributions": pca.contributions,
            "scores": [
                {"concept": concept, "values": pca.scores[i]}
                for i, concept in enumerate(pca.row_labels)
            ],
        },
        "clusters": {
            **vars(clusters),
            "labels": [
                {"concept": concept, "cluster": int(clusters.labels[i])}
                for i, concept in enumerate(pca.row_labels)
            ],
        },
        "ranking": [vars(row) for row in ranking.rows],
        "selection": vars(selection),
        "warnings": sorted(
            set(metadata.get("warnings", [])) | set(selection.warnings)
        ),
    }
    return to_json(document)


# -- scatter plot ------------------------------------------------------------

_PALETTE = (
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#222255",
    "#225555",
    "#552222",
)

_WIDTH, _HEIGHT = 800, 620
_MARGIN = 70


def _hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull (Andrew's monotone chain), counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def emit_scatter(
    pca: PcaResult,
    clusters: ClusterAssignment,
    ranking: SuitabilityRanking,
) -> str:
    """SVG scatter of oriented PC1/PC2 scores.

    Points are labeled by concept and colored by cluster; clusters with at
    least three members get a convex-hull outline; the six variables are
    drawn as loading arrows from the origin; axis captions report explained
    variance. Identical inputs yield identical bytes.
    """
    n = len(pca.row_labels)
    if n < 3:
        raise ValueError(f"need >= 3 points for a scatter, got {n}")
    if len(clusters.labels) != n:
        raise ValueError("cluster labels do not match the PCA rows")

    xs = pca.scores[:, 0].astype(float)
    ys = pca.scores[:, 1].astype(float)
    rank_by_concept = {row.concept: row for row in ranking.rows}

    def padded(lo: float, hi: float) -> tuple[float, float]:
        if hi - lo < 1e-9:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.08 * (hi - lo)
        return lo - pad, hi + pad

    # Keep the origin inside the frame: loading arrows start there.
    xmin, xmax = padded(min(xs.min(), 0.0), max(xs.max(), 0.0))
    ymin, ymax = padded(min(ys.min(), 0.0), max(ys.max(), 0.0))
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + (x - xmin) / (xmax - xmin) * plot_w

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - ymin) / (ymax - ymin) * plot_h

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>'
    )
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    # Zero lines.
    parts.append(
        f'<line x1="{fmt(px(0.0))}" y1="{_MARGIN}" x2="{fmt(px(0.0))}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="#bbbbbb" stroke-dasharray="4,4"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{fmt(py(0.0))}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{fmt(py(0.0))}" stroke="#bbbbbb" stroke-dasharray="4,4"/>'
    )

    # Cluster hulls first so points draw on top.
    for cluster_id in sorted(set(int(c) for c in clusters.labels)):
        member_idx = [i for i in range(n) if int(clusters.labels[i]) == cluster_id]
        if len(member_idx) < 3:
            continue
        hull = _hull([(float(xs[i]), float(ys[i])) for i in member_idx])
        if len(hull) < 3:
            continue
        color = _PALETTE[cluster_id % len(_PALETTE)]
        path = " ".join(f"{fmt(px(x))},{fmt(py(y))}" for x, y in hull)
        parts.append(
            f'<polygon points="{path}" fill="{color}" fill-opacity="0.12" '
            f'stroke="{color}" stroke-width="1"/>'
        )

    # Loading arrows for the variables.
    arrow_scale = 0.85 * min(
        max(abs(xmin), abs(xmax)), max(abs(ymin), abs(ymax))
    ) / max(np.max(np.abs(pca.loadings[:, :2])), 1e-12)
    for v, name in enumerate(pca.variables):
        lx = float(pca.loadings[v, 0]) * arrow_scale
        ly = float(pca.loadings[v, 1]) * arrow_scale
        x1, y1 = px(0.0), py(0.0)
        x2, y2 = px(lx), py(ly)
        parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            'stroke="#884400" stroke-width="1.5" class="loading-arrow"/>'
        )
        # Arrowhead: two short strokes back from the tip.
        dx, dy = x2 - x1, y2 - y1
        norm = max((dx * dx + dy * dy) ** 0.5, 1e-9)
        ux, uy = dx / norm, dy / norm
        for rot in (0.35, -0.35):
            cos_r, sin_r = np.cos(np.pi - rot), np.sin(np.pi - rot)
            hx = ux * cos_r - uy * sin_r
            hy = ux * sin_r + uy * cos_r
            parts.append(
                f'<line x1="{fmt(x2)}" y1="{fmt(y2)}" x2="{fmt(x2 + 8 * hx)}" '
                f'y2="{fmt(y2 + 8 * hy)}" stroke="#884400" stroke-width="1.5"/>'
            )
        anchor = "start" if lx >= 0 else "end"
        parts.append(
            f'<text x="{fmt(x2 + (4 if lx >= 0 else -4))}" y="{fmt(y2 - 4)}" '
            f'font-size="11" fill="#884400" text-anchor="{anchor}">{escape(name)}</text>'
        )

    # Points with concept labels.
    for i, concept in enumerate(pca.row_labels):
        color = _PALETTE[int(clusters.labels[i]) % len(_PALETTE)]
        cx, cy = px(float(xs[i])), py(float(ys[i]))
        row = rank_by_concept.get(concept)
        title = (
            f"{concept}: rank {row.rank}, {row.quadrant}" if row is not None else concept
        )
        parts.append(
            f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="3.5" fill="{color}" '
            f'class="concept-point"><title>{escape(title)}</title></circle>'
        )
        parts.append(
            f'<text x="{fmt(cx + 5)}" y="{fmt(cy - 5)}" font-size="10" '
            f'fill="#222222">{escape(concept)}</text>'
        )

    pc1_pct = float(pca.explained_variance[0]) * 100.0
    pc2_pct = float(pca.explained_variance[1]) * 100.0
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 20}" font-size="14" '
        f'text-anchor="middle">PC1 ({pc1_pct:.1f}% explained)</text>'
    )
    parts.append(
        f'<text x="22" y="{_HEIGHT / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 22 {_HEIGHT / 2:.1f})">PC2 ({pc2_pct:.1f}% '
        "explained)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
