"""The paper's figure pipeline end to end: ``scripts/reproduce_figures.py``
run in-process, as a user runs it."""

import importlib.util
import pathlib

from thermaljc import cli

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
OUTPUTS = sorted(
    [f"fig1_vacuum.{ext}" for ext in ("csv", "svg")]
    + [f"fig2_kbar{tag}.{ext}" for tag in ("0p1", "0p5", "5") for ext in ("csv", "svg")]
    + [f"fig3_delta{tag}.{ext}" for tag in ("0p1", "1", "5") for ext in ("csv", "svg")]
    + ["fig4_epe.csv", "fig4_epe_c_vs_p.svg", "fig4_epe_c_vs_u.svg", "scan_summary.csv"]
)


def _script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reused_and_parsed_columns_give_the_same_figures(tmp_path, monkeypatch, capsys):
    script = _script()
    parsed = []
    parse = cli._parse_csv

    def counted_parse(path, text):
        parsed.append(path)
        return parse(path, text)

    monkeypatch.setattr(cli, "_parse_csv", counted_parse)
    reused_dir, parsed_dir = tmp_path / "reused", tmp_path / "parsed"
    script.main(["--outdir", str(reused_dir), "--steps", "40"])
    assert sorted(path.name for path in reused_dir.iterdir()) == OUTPUTS
    assert parsed == []  # each plot read the CSV its process had just written

    def main_with_an_empty_slot(argv):
        if argv[0] == "plot":
            cli._written = None
        return cli.main(argv)

    monkeypatch.setattr(script, "cli_main", main_with_an_empty_slot)
    script.main(["--outdir", str(parsed_dir), "--steps", "40"])
    assert len(parsed) == 9
    for name in OUTPUTS:
        assert (parsed_dir / name).read_bytes() == (reused_dir / name).read_bytes(), name
    assert capsys.readouterr().out.count("[fig") == 2 * 17
