"""Request/result contracts and the service error hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ParameterError,
    QueueFullError,
    ReproError,
    ServiceError,
)
from repro.service import SortRequest, SortResult
from repro.service.request import validate_request_data


class TestValidateRequestData:
    def test_accepts_and_copies_to_int64(self):
        out = validate_request_data(np.array([3, 1, 2], dtype=np.int32))
        assert out.dtype == np.int64
        assert list(out) == [3, 1, 2]

    def test_rejects_two_dimensional(self):
        with pytest.raises(ParameterError):
            validate_request_data(np.zeros((2, 2), dtype=np.int64))

    def test_rejects_floats(self):
        with pytest.raises(ParameterError):
            validate_request_data(np.array([1.5, 2.5]))

    def test_rejects_uint64_past_int64(self):
        # astype(int64) would wrap these silently, so admission must
        # reject them explicitly.
        for value in (2**63, 2**63 + 7, 2**64 - 1):
            with pytest.raises(ParameterError, match="int64"):
                validate_request_data(np.array([1, value], dtype=np.uint64))

    def test_accepts_boundary_values(self):
        info = np.iinfo(np.int64)
        out = validate_request_data(np.array([info.max, info.min], dtype=np.int64))
        assert out.tolist() == [info.max, info.min]
        top = validate_request_data(np.array([info.max], dtype=np.uint64))
        assert top.dtype == np.int64 and top.tolist() == [info.max]

    def test_accepts_empty(self):
        assert len(validate_request_data(np.array([], dtype=np.int64))) == 0


class TestSortRequest:
    def test_validates_on_construction(self):
        with pytest.raises(ParameterError):
            SortRequest(request_id=0, data=np.array([2**63], dtype=np.uint64))

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ParameterError):
            SortRequest(
                request_id=0, data=np.arange(3, dtype=np.int64), deadline_s=0.0
            )

    def test_elements(self):
        req = SortRequest(request_id=1, data=np.arange(7, dtype=np.int64))
        assert req.elements == 7
        assert req.backend == "cf"


class TestSortResult:
    def test_ok_and_latency(self):
        res = SortResult(
            request_id=0, backend="cf", wait_s=0.25, service_s=0.5
        )
        assert res.ok
        assert res.latency_s == pytest.approx(0.75)
        res.raise_if_failed()  # no-op on success

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("QueueFullError", QueueFullError),
            ("DeadlineExceededError", DeadlineExceededError),
            ("ServiceError", ServiceError),
            ("SomethingUnknown", ServiceError),
        ],
    )
    def test_raise_if_failed_maps_names(self, name, cls):
        res = SortResult(request_id=3, backend="cf", error=name)
        assert not res.ok
        with pytest.raises(cls):
            res.raise_if_failed()


class TestServiceErrorHierarchy:
    def test_hierarchy(self):
        assert issubclass(ServiceError, ReproError)
        assert issubclass(ServiceError, RuntimeError)
        assert issubclass(QueueFullError, ServiceError)
        assert issubclass(DeadlineExceededError, ServiceError)

    def test_distinct_cli_exit_codes(self):
        # The codes `repro serve` / `repro submit` exit with (docs/API.md).
        assert ServiceError.exit_code == 5
        assert QueueFullError.exit_code == 3
        assert DeadlineExceededError.exit_code == 4
        codes = {
            ServiceError.exit_code,
            QueueFullError.exit_code,
            DeadlineExceededError.exit_code,
        }
        assert len(codes) == 3
        assert not codes & {0, 1, 2}  # ok / failure / usage are taken

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise QueueFullError("full")
