"""Span recorder: self-time arithmetic and wrapping at import sites.

Run with `python3 -m unittest discover -s perfbench/tests` from the root.
"""

import os
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import tracer  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_duration_minus_union_of_children(self):
        rec = tracer.SpanRecorder()
        top = rec.add("countcore.xi", 0.0, 10.0)
        rec.add("charkit.character", 1.0, 3.0, parent=top)
        rec.add("charkit.character", 2.0, 4.0, parent=top)  # overlaps the first
        mid = rec.add("exactnum.binomial", 6.0, 7.0, parent=top)
        rec.add("exactnum.binomial", 6.2, 6.5, parent=mid)
        rec.add("exactnum.binomial", 6.4, 6.6, parent=mid)
        own = tracer.self_times(rec)
        expected = [10.0 - 3.0 - 1.0, 2.0, 2.0, 1.0 - 0.4, 0.3, 0.2]
        for got, want in zip(own, expected):
            self.assertAlmostEqual(got, want)

    def test_child_inside_an_earlier_sibling_adds_nothing(self):
        rec = tracer.SpanRecorder()
        top = rec.add("cli.main", 0.0, 5.0)
        rec.add("countcore.xi", 1.0, 4.0, parent=top)
        rec.add("countcore.xi", 2.0, 3.0, parent=top)
        self.assertAlmostEqual(tracer.self_times(rec)[0], 2.0)

    def test_layer_self_times_add_up_to_the_root_span(self):
        rec = tracer.SpanRecorder()
        top = rec.add("cli.main", 0.0, 8.0)
        xi = rec.add("countcore.xi", 1.0, 7.0, parent=top)
        rec.add("charkit.character", 2.0, 3.0, parent=xi)
        rec.add("charkit.character", 4.0, 6.5, parent=xi)
        summary = tracer.summarize(rec)
        self.assertEqual(summary["self_s"], {"cli": 2.0, "countcore": 2.5, "charkit": 3.5})
        self.assertEqual(summary["calls"]["charkit.character"], 2)
        self.assertAlmostEqual(sum(summary["self_s"].values()), 8.0)


class InstallTest(unittest.TestCase):
    def setUp(self):
        # fakepkg.a defines f; fakepkg.b imports it by name and calls it from g.
        self.a = types.ModuleType("fakepkg.a")
        exec("def f(x):\n    return x + 1\n", self.a.__dict__)
        self.b = types.ModuleType("fakepkg.b")
        self.b.f = self.a.f
        exec("def g(x):\n    return f(x) * 2\n", self.b.__dict__)
        pkg = types.ModuleType("fakepkg")
        for mod in (pkg, self.a, self.b):
            sys.modules[mod.__name__] = mod
        self.addCleanup(lambda: [sys.modules.pop(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b")])

    def test_calls_through_an_import_site_are_recorded_with_parents(self):
        ticks = iter(range(100))
        rec = tracer.SpanRecorder(clock=lambda: float(next(ticks)))
        original_f = self.a.f
        uninstall = tracer.install(rec, package="fakepkg", methods=())
        rec.current_request = 7
        self.assertEqual(self.b.g(1), 4)
        self.assertEqual([rec.names[i] for i in rec.name_id], ["b.g", "a.f"])
        self.assertEqual(list(rec.parent), [-1, 0])
        self.assertEqual(list(rec.request), [7, 7])
        self.assertEqual(tracer.self_times(rec), [2.0, 1.0])
        uninstall()
        self.assertIs(self.a.f, original_f)
        self.assertIs(self.b.f, original_f)

    def test_permfact_import_sites(self):
        import permfact
        from permfact import charkit, countcore

        original = charkit.character
        rec = tracer.SpanRecorder()
        uninstall = tracer.install(rec)
        try:
            self.assertIs(countcore.character.traced_original, original)
            classes = (permfact.Partition([2, 1, 1]), permfact.Partition([3, 1]))
            countcore._xi_cached.cache_clear()
            permfact.xi(classes, 2)
            calls = tracer.summarize(rec)["calls"]
        finally:
            uninstall()
        self.assertIs(countcore.character, original)
        self.assertEqual(calls["countcore.xi"], 1)
        self.assertEqual(calls["countcore.w_number"], 3)  # k = 0..n-m
        self.assertGreater(calls["charkit.character"], 0)

    def test_write_round_trips(self):
        import json
        import tempfile
        from array import array

        rec = tracer.SpanRecorder()
        rec.add("cli.main", 0.5, 1.5)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans")
            rec.write(path)
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                arrays = {}
                for name, code in header["fields"]:
                    arrays[name] = array(code)
                    arrays[name].fromfile(fh, header["count"])
        self.assertEqual(header["names"], ["cli.main"])
        self.assertEqual(list(arrays["end"]), [1.5])


if __name__ == "__main__":
    unittest.main()
