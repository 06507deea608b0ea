"""Result tables keyed by (test set, model, LM on/off), rendered as an
aligned text table and a machine-readable TSV."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wer import WerBreakdown


@dataclass(frozen=True)
class CellKey:
    test_set: str
    model: str
    lm_on: bool


@dataclass
class CellResult:
    breakdown: WerBreakdown
    # Every cell is complete: evaluate writes a cell only once it is scored.
    # results.tsv keeps its status column, which always reads this.
    status = "ok"

    @property
    def wer_text(self) -> str:
        return f"{100.0 * self.breakdown.wer:.2f}"


class ResultTable:
    """Ordered mapping of evaluation cells, each with its WER breakdown."""

    def __init__(self) -> None:
        self.cells: dict[CellKey, CellResult] = {}

    def set(self, test_set: str, model: str, lm_on: bool, breakdown: WerBreakdown) -> None:
        self.cells[CellKey(test_set, model, lm_on)] = CellResult(breakdown)

    def get(self, test_set: str, model: str, lm_on: bool) -> CellResult:
        return self.cells[CellKey(test_set, model, lm_on)]

    def ordered_keys(self) -> list[CellKey]:
        return sorted(self.cells, key=lambda k: (k.test_set, k.model, k.lm_on))

    def to_tsv(self) -> str:
        lines = ["test_set\tmodel\tlm\twer\tsubstitutions\tinsertions\tdeletions\treference_words\tstatus"]
        for key in self.ordered_keys():
            cell = self.cells[key]
            b = cell.breakdown
            lines.append(f"{key.test_set}\t{key.model}\t{'on' if key.lm_on else 'off'}"
                         f"\t{b.wer!r}\t{b.substitutions}\t{b.insertions}\t{b.deletions}"
                         f"\t{b.reference_words}\t{cell.status}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        test_sets = sorted({k.test_set for k in self.cells})
        models = sorted({k.model for k in self.cells})
        width = max([len(m) for m in models] + [5])
        lines = []
        for ts in test_sets:
            lines.append(f"== test set: {ts} (WER %, LM off / LM on)")
            for m in models:
                off = self.cells.get(CellKey(ts, m, False))
                on = self.cells.get(CellKey(ts, m, True))
                if off is None and on is None:
                    continue
                left = off.wer_text if off else "n/a"
                right = on.wer_text if on else "n/a"
                lines.append(f"  {m:<{width}}  {left:>8}  {right:>8}")
            lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_tsv(cls, text: str, source: str = "the results table") -> "ResultTable":
        """The table ``to_tsv`` wrote. A row that does not parse, a cell
        whose status is not ``ok``, or a cell already read is a ValueError
        naming ``source`` and the line."""
        table = cls()
        rows = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln][1:]
        for lineno, ln in rows:
            parts = ln.split("\t")
            try:
                if len(parts) != 9:
                    raise ValueError(f"{len(parts)} fields, expected 9")
                test_set, model, lm, _, sub, ins, dele, refw, status = parts
                if status != CellResult.status:
                    raise ValueError(f"cell {model} on {test_set} (lm {lm}) has status "
                                     f"{status!r}")
                if lm not in ("on", "off"):
                    raise ValueError(f"lm is {lm!r}, not 'on' or 'off'")
                if CellKey(test_set, model, lm == "on") in table.cells:
                    raise ValueError(f"cell {model} on {test_set} (lm {lm}) is repeated")
                breakdown = WerBreakdown(int(sub), int(ins), int(dele), int(refw))
            except ValueError as error:
                raise ValueError(f"{source} line {lineno}: {error}; delete {source} and "
                                 "re-run 'evaluate'") from None
            table.set(test_set, model, lm == "on", breakdown)
        return table


def summarize(per_seed: dict[int, ResultTable]) -> str:
    """Cross-seed mean/std TSV; only cells present in every seed are averaged."""
    seeds = sorted(per_seed)
    keys = set.intersection(*[set(per_seed[s].cells) for s in seeds]) if seeds else set()
    lines = ["test_set\tmodel\tlm\tmean_wer\tstd_wer\tn_seeds\tper_seed_wer"]
    for key in sorted(keys, key=lambda k: (k.test_set, k.model, k.lm_on)):
        wers = [per_seed[s].cells[key].breakdown.wer for s in seeds]
        arr = np.asarray(wers)
        per_seed_text = ",".join(repr(w) for w in wers)
        lines.append(f"{key.test_set}\t{key.model}\t{'on' if key.lm_on else 'off'}"
                     f"\t{float(arr.mean())!r}\t{float(arr.std())!r}\t{len(wers)}"
                     f"\t{per_seed_text}")
    return "\n".join(lines) + "\n"
