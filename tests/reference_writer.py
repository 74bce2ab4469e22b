"""The reference report writer: a report is ``json.dumps(pin(payload),
indent=2, sort_keys=True)``.  ``plab.cli._parts`` streams the same text in
one walk, which ``plab.cli._stream`` writes to stdout or, through
``plab.cli.write_report``, to a report file.  ``TestReportPlumbing``'s
``test_render_equals_dumps_of_pinned_payload`` and
``test_sdp_report_text_equals_dumps_of_the_json_witness`` hold both to this."""

import numpy as np

from plab.cli import _leaf


def matrix_to_json(m: np.ndarray) -> list:
    """Complex matrix as row-major [re, im] pairs: the layout of a state file's
    ``entries``, which ``plab.quantum.matrix_from_json`` reads."""
    m = np.asarray(m, dtype=complex)
    return [[[re, im] for re, im in zip(*rows)] for rows in zip(m.real.tolist(), m.imag.tolist())]


def pin(obj):
    """Normalize a report payload: string keys, lists for tuples, a 2-D array as
    ``matrix_to_json`` lists it, leaves by ``_leaf``."""
    if isinstance(obj, dict):
        return {str(k): pin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [pin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2:
            raise TypeError(f"cannot serialize a {obj.ndim}-D array in a report")
        return pin(matrix_to_json(np.ascontiguousarray(obj, dtype=complex)))
    return _leaf(obj)
