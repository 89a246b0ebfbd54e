"""StreamingJsonlSink, sink containment and tolerant trace reading."""

import errno
import json
import os

import pytest

from repro.obs.tracer import StreamingJsonlSink, Tracer, read_jsonl


def _clock_pair():
    wall = iter(float(i) for i in range(10_000))
    cpu = iter(float(i) / 10 for i in range(10_000))
    return (lambda: next(wall)), (lambda: next(cpu))


class TestStreamingJsonlSink:
    def test_bytes_identical_to_export_jsonl(self, tmp_path):
        """The crash-durable file equals the write-at-end export."""
        streamed = tmp_path / "streamed.jsonl"
        exported = tmp_path / "exported.jsonl"
        wall, cpu = _clock_pair()
        sink = StreamingJsonlSink(str(streamed))
        tracer = Tracer(clock=wall, cpu_clock=cpu, sink=sink)
        with tracer.span("run", circuit="c"):
            with tracer.span("pass", index=0):
                with tracer.span("pair", f="a", d="b"):
                    pass
        sink.close()
        tracer.export_jsonl(str(exported))
        assert streamed.read_bytes() == exported.read_bytes()
        assert sink.events_written == len(tracer.events)
        assert read_jsonl(str(streamed)) == tracer.events

    def test_every_line_is_flushed_before_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = StreamingJsonlSink(str(path))
        sink({"v": 1, "kind": "pair", "id": 0, "parent": -1,
              "proc": "main", "start": 0.0, "end": 0.0, "dur": 0.0,
              "cpu": 0.0, "attrs": {}})
        # Without closing: the line must already be on disk.
        assert path.read_text().count("\n") == 1
        sink.close()
        assert sink.closed

    def test_write_after_close_is_noop(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = StreamingJsonlSink(str(path))
        sink.close()
        sink({"id": 1})
        assert path.read_text() == ""
        assert sink.events_written == 0

    def test_context_manager_closes(self, tmp_path):
        with StreamingJsonlSink(str(tmp_path / "t.jsonl")) as sink:
            assert not sink.closed
        assert sink.closed

    def test_unwritable_path_raises_at_open(self, tmp_path):
        with pytest.raises(OSError):
            StreamingJsonlSink(str(tmp_path / "missing" / "t.jsonl"))


class TestSinkContainment:
    def test_failing_sink_is_detached_not_fatal(self):
        """A broken sink must never take the optimization down."""
        calls = []

        def bad_sink(event):
            calls.append(event)
            raise OSError("disk full")

        wall, cpu = _clock_pair()
        tracer = Tracer(clock=wall, cpu_clock=cpu, sink=bad_sink)
        with tracer.span("pass", index=0):
            pass
        with tracer.span("pass", index=1):
            pass
        # First event hit the sink and detached it; second didn't.
        assert len(calls) == 1
        assert isinstance(tracer.sink_error, OSError)
        # The in-memory trace is still complete.
        assert [e["attrs"]["index"] for e in tracer.events] == [0, 1]

    @pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs the /dev/full device"
    )
    def test_full_disk_detaches_and_close_does_not_raise(self):
        sink = StreamingJsonlSink("/dev/full")
        tracer = Tracer(sink=sink)
        with tracer.span("pass", index=0):
            pass
        assert tracer.sink_error.errno == errno.ENOSPC
        sink.close()  # the buffered line fails to flush again
        assert sink.closed
        assert sink.error.errno == errno.ENOSPC
        assert len(tracer.events) == 1


class TestTolerantReadJsonl:
    def _write_events(self, path, truncate_tail=False):
        wall, cpu = _clock_pair()
        tracer = Tracer(clock=wall, cpu_clock=cpu)
        with tracer.span("run", circuit="c"):
            with tracer.span("pass", index=0):
                pass
        tracer.export_jsonl(str(path))
        if truncate_tail:
            text = path.read_text()
            path.write_text(text[: len(text) - 25])
        return tracer.events

    def test_truncated_trailing_line_dropped_with_warning(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_events(path, truncate_tail=True)
        warnings = []
        events = read_jsonl(
            str(path), tolerant=True, on_warning=warnings.append
        )
        assert len(events) == 1
        assert events[0]["kind"] == "pass"
        assert len(warnings) == 1
        assert "truncated" in warnings[0]

    def test_strict_mode_still_rejects_truncation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_events(path, truncate_tail=True)
        with pytest.raises(ValueError):
            read_jsonl(str(path))

    def test_tolerant_mode_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_events(path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_jsonl(str(path), tolerant=True)

    def test_tolerant_mode_passes_clean_files_through(self, tmp_path):
        path = tmp_path / "t.jsonl"
        expected = self._write_events(path)
        warnings = []
        events = read_jsonl(
            str(path), tolerant=True, on_warning=warnings.append
        )
        assert events == expected
        assert warnings == []


def test_stream_module_is_json_clean(tmp_path):
    # Events with non-ASCII attrs must roundtrip through the sink.
    path = tmp_path / "t.jsonl"
    with StreamingJsonlSink(str(path)) as sink:
        sink({"v": 1, "kind": "pair", "id": 0, "parent": -1,
              "proc": "müller", "start": 0.0, "end": 0.0, "dur": 0.0,
              "cpu": 0.0, "attrs": {"node": "ü"}})
    line = path.read_text().strip()
    assert json.loads(line)["proc"] == "müller"
