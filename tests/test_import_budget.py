"""Start-up import budget: a DES run and the port service load only
what they use, and the lazy re-exports still expose every public name."""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def _loaded(statement: str, modules) -> dict:
    return _run(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps({{m: m in sys.modules for m in {list(modules)!r}}}))"
    )


class TestImportBudget:
    def test_des_run_loads_no_server_analysis_or_solutions(self):
        loaded = _loaded(
            "import repro.experiments.des_run",
            ["repro.obs.server", "http.server", "repro.analysis", "repro.solutions"],
        )
        assert loaded == dict.fromkeys(loaded, False)

    def test_des_run_and_fingerprint_load_no_openssl(self):
        # The fingerprint hashes with the interpreter's own SHA-256;
        # hashlib would map OpenSSL (several MB resident) for one digest.
        loaded = _loaded(
            "from repro.experiments.des_run import DesRunConfig, prepare_trace_des\n"
            "from repro.traces.generators import generate_trace\n"
            "prepare_trace_des(generate_trace('Classroom'),"
            " DesRunConfig(client_count=2, duration_s=5.0))"
            ".execute().deterministic_fingerprint()",
            ["_hashlib"],
        )
        assert loaded == {"_hashlib": False}

    def test_closed_form_loads_no_simulator(self):
        loaded = _loaded("import repro.solutions", ["repro.sim", "repro.station"])
        assert loaded == dict.fromkeys(loaded, False)

    def test_des_run_loads_no_closed_form(self):
        loaded = _loaded(
            "import repro.experiments.des_run",
            ["repro.energy.model", "repro.energy.dynamics"],
        )
        assert loaded == dict.fromkeys(loaded, False)

    def test_port_service_loads_no_simulator_or_load_generator(self):
        loaded = _loaded(
            "import repro.service.server",
            ["repro.sim", "repro.station", "repro.energy", "repro.service.loadgen"],
        )
        assert loaded == dict.fromkeys(loaded, False)

    def test_port_service_module_count(self):
        # The server needs the data-frame builder, Algorithm 1's port
        # parse and the trace generator, not every frame type, element
        # and trace tool their package inits name (34 modules when
        # this bound was set).
        count = _run(
            "import json, sys\n"
            "import repro.service.server\n"
            "print(json.dumps(sum(m == 'repro' or m.startswith('repro.')"
            " for m in sys.modules)))"
        )
        assert count <= 36

    def test_bare_import_loads_no_simulator(self):
        loaded = _loaded("import repro", ["repro.sim", "repro.traces", "repro.obs"])
        assert loaded == dict.fromkeys(loaded, False)


class TestLazyExports:
    def test_star_import_and_dir_expose_all(self):
        result = _run(
            "import json\n"
            "import repro\n"
            "namespace = {}\n"
            "exec('from repro import *', namespace)\n"
            "print(json.dumps({'all': repro.__all__,"
            " 'star': sorted(k for k in namespace if k != '__builtins__'),"
            " 'dir': dir(repro)}))"
        )
        assert sorted(result["all"]) == result["star"]
        assert set(result["all"]) <= set(result["dir"])

    def test_subpackage_exports_resolve(self):
        import repro.ap
        import repro.dot11
        import repro.energy
        import repro.experiments
        import repro.obs
        import repro.service
        import repro.traces

        packages = (
            repro,
            repro.ap,
            repro.dot11,
            repro.energy,
            repro.experiments,
            repro.obs,
            repro.service,
            repro.traces,
        )
        for package in packages:
            for name in package.__all__:
                assert getattr(package, name) is not None, (package.__name__, name)
            assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018
