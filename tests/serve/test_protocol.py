"""The JSON wire protocol: versioning, ops, 304 renders, error shapes."""

import json

from repro.apps.counter import SOURCE as COUNTER
from repro.api import Tracer
from repro.serve.host import SessionHost
from repro.serve.protocol import PROTOCOL_VERSION, handle_request


def make_host(**kwargs):
    kwargs.setdefault("pool_size", 8)
    kwargs.setdefault("default_source", COUNTER)
    kwargs.setdefault("tracer", Tracer())
    return SessionHost(**kwargs)


def call(host, **request):
    response = handle_request(host, request)
    json.dumps(response)  # every response must be JSON-clean
    assert response["protocol"] == PROTOCOL_VERSION
    return response


class TestEnvelope:
    def test_responses_carry_protocol_and_op(self):
        host = make_host()
        response = call(host, op="stats")
        assert response["ok"] and response["op"] == "stats"

    def test_wrong_protocol_version_rejected(self):
        response = call(make_host(), op="stats", protocol=99)
        assert not response["ok"]
        assert "protocol version" in response["error"]["message"]

    def test_unknown_op_lists_valid_ops(self):
        response = call(make_host(), op="dance")
        assert not response["ok"]
        assert "create" in response["error"]["message"]

    def test_non_object_request_rejected(self):
        response = handle_request(make_host(), "tap")
        assert not response["ok"]

    def test_semantic_errors_name_their_type(self):
        response = call(make_host(), op="render", token="nope")
        assert response["error"]["type"] == "UnknownToken"

    def test_missing_field_is_a_bad_request(self):
        response = call(make_host(), op="tap")
        assert response["error"]["type"] == "BadRequest"


class TestSessionOps:
    def test_create_tap_render_flow(self):
        host = make_host()
        created = call(host, op="create")
        token = created["token"]
        assert created["page"] == "start"
        call(host, op="tap", token=token, text="count: 0")
        rendered = call(host, op="render", token=token)
        assert "count: 1" in rendered["html"]
        assert rendered["generation"] >= 1

    def test_render_not_modified(self):
        host = make_host()
        token = call(host, op="create")["token"]
        first = call(host, op="render", token=token)
        second = call(
            host, op="render", token=token,
            generation=first["generation"],
        )
        assert second["not_modified"]
        assert "html" not in second

    def test_create_with_inline_source(self):
        host = SessionHost(pool_size=2)  # no default app
        created = call(
            host, op="create",
            source='page start()\n  render\n    post "inline"\n',
        )
        rendered = call(host, op="render", token=created["token"])
        assert "inline" in rendered["html"]

    def test_back_and_edit_box(self):
        host = make_host()
        token = call(
            host, op="create",
            source=(
                "global apr : number = 4.5\n"
                "page start()\n  render\n    boxed\n      editable apr\n"
            ),
        )["token"]
        html = call(host, op="render", token=token)["html"]
        assert "4.5" in html
        # Find the editable box's path via the host's session directly.
        with host.session(token) as entry:
            path = list(entry.session.runtime.find_text("4.5"))
        edited = call(
            host, op="edit_box", token=token, path=path, text="6.25"
        )
        assert edited["ok"]
        assert "6.25" in call(host, op="render", token=token)["html"]
        assert call(host, op="back", token=token)["ok"]

    def test_batch_reports_coalescing(self):
        host = make_host()
        token = call(host, op="create")["token"]
        with host.session(token) as entry:
            path = list(entry.session.runtime.find_text("count: 0"))
        response = call(
            host, op="batch", token=token,
            events=[{"kind": "tap", "path": path}] * 4,
        )
        assert response["events"] == 4
        assert response["renders"] == 1
        assert response["coalesced"] == 3
        assert host.metrics()["renders_coalesced"] == 3

    def test_edit_source_applied_and_rejected(self):
        host = make_host()
        token = call(host, op="create")["token"]
        applied = call(
            host, op="edit_source", token=token,
            source=COUNTER.replace('"count: "', '"taps: "'),
        )
        assert applied["status"] == "applied"
        assert applied["dropped_globals"] == []
        rejected = call(
            host, op="edit_source", token=token, source="page start(\n"
        )
        assert rejected["status"] == "rejected"
        assert rejected["problems"]
        # The session still runs the last good code.
        assert "taps: 0" in call(host, op="render", token=token)["html"]

    def test_probe(self):
        host = make_host()
        token = call(host, op="create")["token"]
        response = call(
            host, op="probe", token=token, expression="count + 41"
        )
        assert "41.0" in response["result"]

    def test_snapshot_is_a_loadable_image(self):
        from repro.persist import load_image

        host = make_host()
        token = call(host, op="create")["token"]
        call(host, op="tap", token=token, text="count: 0")
        image = call(host, op="snapshot", token=token)["image"]
        assert image["meta"]["token"] == token
        restored = load_image(json.loads(json.dumps(image)))
        assert restored.runtime.contains_text("count: 1")

    def test_evict_and_stats(self):
        host = make_host()
        token = call(host, op="create")["token"]
        assert call(host, op="evict", token=token)["evicted"]
        stats = call(host, op="stats")["stats"]
        assert stats["evicted"] == 1
        assert stats["metrics"]["sessions_evicted"] == 1
        # The evicted session still answers.
        assert "count: 0" in call(host, op="render", token=token)["html"]


class TestWireCodec:
    """The single dataclass→JSON codec behind every op payload."""

    def test_dataclasses_tuples_and_fallbacks(self):
        import dataclasses

        from repro.serve.protocol import wire_encode

        @dataclasses.dataclass
        class Inner:
            xs: tuple

        @dataclasses.dataclass
        class Outer:
            name: str
            inner: Inner
            table: dict

        encoded = wire_encode(
            Outer("a", Inner((1, 2)), {"k": ValueError("boom")})
        )
        assert encoded == {
            "name": "a",
            "inner": {"xs": [1, 2]},
            "table": {"k": "boom"},
        }
        json.dumps(encoded)

    def test_result_payload_flattens_the_report(self):
        import dataclasses

        from repro.serve.protocol import result_payload

        @dataclasses.dataclass
        class Report:
            dropped_globals: tuple = ("g",)

        @dataclasses.dataclass
        class Result:
            status: str = "applied"
            report: Report = dataclasses.field(default_factory=Report)

        payload = result_payload(Result())
        assert payload == {
            "status": "applied", "dropped_globals": ["g"],
        }

    def test_edit_source_payload_carries_memo_fields(self):
        # A field added to EditResult reaches the wire without touching
        # the op handler — the point of the shared codec.
        from repro.apps.gallery import function_gallery_source

        source = function_gallery_source(rows=2, cols=2)
        host = make_host(default_source=source)
        token = call(host, op="create")["token"]
        response = call(
            host, op="edit_source", token=token,
            source=source.replace('"gallery"', '"edited"'),
        )
        assert response["status"] == "applied"
        assert response["memo_hits"] == 2        # the two row calls
        assert response["memo_misses"] == 0
        assert response["replayed_boxes"] == 6   # 2 rows + 4 cells
        assert response["dropped_globals"] == []


class TestObservabilityOps:
    """``history`` and ``why``: the journal over the wire."""

    def journaled_host(self, tmp_path):
        from repro.api import Journal

        return make_host(journal=Journal(str(tmp_path / "journal")))

    def test_ops_require_a_journal(self):
        host = make_host()
        token = call(host, op="create")["token"]
        for op in ("history", "why"):
            response = call(host, op=op, token=token, path=[0])
            assert not response["ok"]
            assert "--journal-dir" in response["error"]["message"]

    def test_history_returns_the_timeline(self, tmp_path):
        host = self.journaled_host(tmp_path)
        token = call(host, op="create")["token"]
        call(host, op="tap", token=token, path=[0])
        call(host, op="back", token=token)
        response = call(host, op="history", token=token)
        assert response["ok"]
        history = response["history"]
        assert [entry["kind"] for entry in history] == [
            "create", "event", "event"
        ]
        assert [entry.get("op") for entry in history] == [
            None, "tap", "back"
        ]
        seqs = [entry["seq"] for entry in history]
        assert seqs == sorted(seqs)
        # No record drags a checkpoint image over the wire.
        assert all("image" not in entry for entry in history)

    def test_history_limit_keeps_the_tail(self, tmp_path):
        host = self.journaled_host(tmp_path)
        token = call(host, op="create")["token"]
        for _ in range(4):
            call(host, op="tap", token=token, path=[0])
        response = call(host, op="history", token=token, limit=2)
        assert len(response["history"]) == 2
        assert all(e["op"] == "tap" for e in response["history"])
        bad = call(host, op="history", token=token, limit=0)
        assert bad["error"]["type"] == "BadRequest"

    def test_history_unknown_token(self, tmp_path):
        host = self.journaled_host(tmp_path)
        response = call(host, op="history", token="nope")
        assert response["error"]["type"] == "UnknownToken"

    def test_why_joins_code_slots_and_events(self, tmp_path):
        host = self.journaled_host(tmp_path)
        token = call(host, op="create")["token"]
        call(host, op="tap", token=token, path=[0])
        call(host, op="tap", token=token, path=[0])
        response = call(host, op="why", token=token, path=[0])
        assert response["ok"]
        report = response["why"]
        assert report["owner"] == "page start (render)"
        assert set(report["span"]) == {"start", "end"}
        assert set(report["span"]["start"]) == {"line", "column", "offset"}
        assert report["reads"] == ["count"]
        assert len(report["events"]) == 2
        assert all(e["wrote"] == ["count"] for e in report["events"])
        by_text = call(host, op="why", token=token, text="count: 2")
        assert by_text["why"]["events"] == report["events"]

    def test_why_without_selector_is_a_bad_request(self, tmp_path):
        host = self.journaled_host(tmp_path)
        token = call(host, op="create")["token"]
        response = call(host, op="why", token=token)
        assert response["error"]["type"] == "BadRequest"
