"""Tests for system persistence and the admin CLI flow."""

import os
import stat

import numpy as np
import pytest

from repro.core import AdminConfig, JustInTime, load_system, save_system
from repro.data import john_profile, make_lending_dataset
from repro.exceptions import StorageError
from repro.temporal import lending_update_function


@pytest.fixture(scope="module")
def trained(schema):
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(T=2, strategy="last", k=4, max_iter=8, random_state=0),
    )
    system.fit(make_lending_dataset(n_per_year=100, random_state=5))
    return system


class TestSaveLoad:
    def test_roundtrip_scores_identical(self, trained, tmp_path, john):
        path = tmp_path / "system.pkl"
        save_system(trained, path)
        loaded = load_system(path)
        for t in range(3):
            assert loaded.future_models.score(john, t) == pytest.approx(
                trained.future_models.score(john, t)
            )
        assert np.allclose(loaded.diff_scale, trained.diff_scale)
        assert loaded.time_values == trained.time_values

    def test_loaded_system_serves_sessions(self, trained, tmp_path):
        path = tmp_path / "system.pkl"
        save_system(trained, path)
        loaded = load_system(path)
        session = loaded.create_session(
            "u", john_profile(), user_constraints=["gap <= 3"]
        )
        insights = session.all_insights(alpha=0.6, feature="monthly_debt")
        assert len(insights) == 6

    def test_sessions_match_original(self, trained, tmp_path):
        path = tmp_path / "system.pkl"
        save_system(trained, path)
        loaded = load_system(path)
        a = trained.create_session("u", john_profile())
        b = loaded.create_session("u", john_profile())
        def key(c):
            return (c.time, tuple(np.round(c.x, 9)))

        assert sorted(map(key, a.candidates)) == sorted(map(key, b.candidates))
        trained.store.clear_user("u")

    def test_file_backed_store_attachment(self, trained, tmp_path):
        pkl = tmp_path / "system.pkl"
        db = tmp_path / "candidates.db"
        save_system(trained, pkl)
        loaded = load_system(pkl, store_path=db)
        loaded.create_session("u", john_profile())
        count = loaded.store.candidate_count("u")
        # reopen from disk: the candidates survived
        again = load_system(pkl, store_path=db)
        assert again.store.candidate_count("u") == count

    def test_version_check(self, trained, tmp_path):
        import pickle

        path = tmp_path / "bad.pkl"
        with path.open("wb") as handle:
            pickle.dump({"version": 99}, handle)
        with pytest.raises(StorageError, match="version"):
            load_system(path)

    @pytest.mark.skipif(os.name != "posix", reason="directory fsync is POSIX")
    def test_save_fsyncs_file_then_renames_then_fsyncs_directory(
        self, trained, tmp_path, monkeypatch
    ):
        """A checkpoint is durable: the temp file's bytes reach the disk
        before the rename publishes it, and the rename itself (a
        directory entry) before ``save_system`` returns."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(f"fsync {kind}")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "system.pkl"
        save_system(trained, path)
        assert calls == ["fsync file", "replace", "fsync dir"]
        assert load_system(path).time_values == trained.time_values


class TestAdminCli:
    def test_admin_then_load(self, tmp_path, capsys):
        from repro.app.cli import main

        pkl = tmp_path / "sys.pkl"
        code = main(
            ["--n-per-year", "60", "--horizon", "1", "admin",
             "--save", str(pkl)]
        )
        assert code == 0
        assert pkl.exists()
        assert "trained 2 future models" in capsys.readouterr().out
        code = main(["--load", str(pkl), "quickstart"])
        assert code == 0
        assert "Plans and Insights" in capsys.readouterr().out
