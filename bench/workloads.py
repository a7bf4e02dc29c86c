"""The four benchmark workloads: seeded inputs, one op, its CLI form, its check.

Each op takes a span factory.  Untraced ops get `tracing.no_span`; the
traced pass gets `Tracer.span`, so both run the same code.
"""

from __future__ import annotations

import io

from harmonic_codes import analyzer, codes, embedding, lattice

import checks
import inputs

T_MAX = 3


class Certify:
    """Parse, build, certify and render a root code; the headline CI use."""

    def __init__(self, name: str, lattice_name: str) -> None:
        self.name = name
        self.lattice = lattice_name

    def prepare(self, seed: int, span) -> dict:
        text = inputs.lattice_text(self.lattice, seed)
        with span("lattice.parse"):
            code = lattice.code_from_text(text)
        return {"texts": {"code": text}, "code": code}

    def op(self, state: dict, span) -> str:
        with span("lattice.parse"):
            code = lattice.code_from_text(state["texts"]["code"])
        with span("embedding.build_code"):
            built = embedding.build_code(code)
        with span("codes.certify"):
            report = codes.certify(built, t_max=T_MAX)
        with span("codes.report_json"):
            return codes.report_to_json(report)

    def parts(self, built, span) -> int:
        """Call each certificate `certify` runs, separately, on one built code.

        Returns the number of distinct Gram values, diagonal included.
        """
        dim = built.ambient_harmonic_dim
        with span("codes.gram_view"):
            g = codes.gram_from_embedded(built)
        with span("codes.coherence"):
            codes.max_coherence(g)
        with span("codes.spectrum"):
            spectrum = codes.gram_spectrum(g)
        with span("codes.frame"):
            codes.frame_bound_check(g, dim)
        with span("codes.design"):
            codes.design_strength(g, dim - 1, T_MAX)
        with span("codes.bound"):
            codes.quadratic_bound(g.n, dim)
        return len(set(spectrum) | {1})

    def check(self, state: dict, output: str) -> list[str]:
        return checks.check_certificate(output, self.lattice)

    def cli_steps(self, state: dict, whole_batch: bool = False) -> list[tuple[list[str], str]]:
        """(argv, stdin) of each child of one CLI op; whole_batch matters to scans only."""
        return [(["certify", "--in", "-"], state["texts"]["code"])]

    def check_cli(self, state: dict, results) -> list[str]:
        ((rc, out),) = results
        return checks.check_certificate(out, self.lattice, rc)


class Export:
    """Build the E8 image and write both export formats; `codes` does no work."""

    name = "e8_export"

    def prepare(self, seed: int, span) -> dict:
        text = inputs.lattice_text("e8", seed)
        with span("lattice.parse"):
            code = lattice.code_from_text(text)
        return {"texts": {"code": text}, "code": code}

    def op(self, state: dict, span) -> tuple[str, str]:
        with span("embedding.build_code"):
            built = embedding.build_code(state["code"])
        with span("embedding.gram_text"):
            gram = embedding.gram_to_text(built.gram)
        with span("embedding.float_text"):
            floats = embedding.float_code_to_text(built)
        return gram, floats

    def check(self, state: dict, output: tuple[str, str]) -> list[str]:
        return checks.check_export(*output, state["texts"]["code"])

    def cli_steps(self, state: dict, whole_batch: bool = False) -> list[tuple[list[str], str]]:
        text = state["texts"]["code"]
        return [(["export", "--exact", "--in", "-"], text),
                (["export", "--float", "--in", "-"], text)]

    def check_cli(self, state: dict, results) -> list[str]:
        (rc_gram, gram), (rc_float, floats) = results
        errors = [f"exit code {rc}, expected 0" for rc in (rc_gram, rc_float) if rc != 0]
        return errors + checks.check_export(gram, floats, state["texts"]["code"])


class Scan:
    """Gegenbauer image scans of a batch of random spectra, as `scan` runs them."""

    name = "spectrum_scan"
    k_range = range(1, inputs.SCAN_K_MAX + 1)

    def prepare(self, seed: int, span) -> dict:
        generated = inputs.spectra(seed)
        texts = {f"spectrum{i:02d}": inputs.spectrum_text(values) for i, (_, values) in enumerate(generated)}
        batch = []
        for (d, _), text in zip(generated, texts.values()):
            with span("analyzer.read"):
                batch.append((d, analyzer.read_spectrum_file(io.StringIO(text))))
        return {"texts": texts, "batch": batch, "generated": generated}

    def op(self, state: dict, span) -> str:
        lines = []
        for d, values in state["batch"]:
            with span("analyzer.scan"):
                results = analyzer.constant_modulus_scan(values, d, self.k_range)
            for result in results:
                with span("analyzer.json"):
                    lines.append(analyzer.scan_to_json(result))
                with span("analyzer.candidate"):
                    summary = analyzer.candidate_parameters(values, d, result.k, inputs.SCAN_N_POINTS)
                with span("analyzer.json"):
                    lines.append(analyzer.candidate_to_json(summary))
        return "".join(lines)

    def check(self, state: dict, output: str) -> list[str]:
        return checks.check_scan(output, state["generated"])

    def cli_steps(self, state: dict, whole_batch: bool = False) -> list[tuple[list[str], str]]:
        """The first spectrum for a CLI child; every spectrum for in-process `cli.main`."""
        spectra = zip(state["generated"], state["texts"].values())
        return [
            (["scan", "--in", "-", "-d", str(d), "-k", str(self.k_range[0]), "--k-max",
              str(self.k_range[-1]), "--n-points", str(inputs.SCAN_N_POINTS)], text)
            for (d, _), text in list(spectra)[:None if whole_batch else 1]
        ]

    def check_cli(self, state: dict, results) -> list[str]:
        errors = [f"exit code {rc}, expected 0" for rc, _ in results if rc != 0]
        output = "".join(out for _, out in results)
        return errors + checks.check_scan(output, state["generated"][:len(results)])


WORKLOADS = {w.name: w for w in (Certify("e8_certify", "e8"), Export(), Certify("d16_certify", "d16"), Scan())}
