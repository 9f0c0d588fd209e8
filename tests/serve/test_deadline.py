"""CancelToken and the per-candidate cancel check."""

import pytest

from repro.serve.deadline import (REASON_CLIENT, REASON_DEADLINE,
                                  REASON_DRAIN, CancelToken,
                                  JobCancelled, make_cancel_check)


class TestCancelToken:
    def test_first_cancel_wins(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None
        token.cancel(REASON_DRAIN)
        token.cancel(REASON_CLIENT)
        assert token.cancelled
        assert token.reason == REASON_DRAIN

    def test_wait_returns_once_cancelled(self):
        token = CancelToken()
        assert not token.wait(timeout=0.01)
        token.cancel(REASON_CLIENT)
        assert token.wait(timeout=0.01)


class TestCancelCheck:
    def test_noop_while_alive(self):
        check = make_cancel_check(CancelToken())
        check()    # must not raise

    def test_raises_with_token_reason(self):
        token = CancelToken()
        token.cancel(REASON_CLIENT)
        check = make_cancel_check(token)
        with pytest.raises(JobCancelled) as excinfo:
            check()
        assert excinfo.value.reason == REASON_CLIENT

    def test_deadline_fires_the_token(self):
        clock_now = [0.0]
        token = CancelToken()
        check = make_cancel_check(token, deadline_at=5.0,
                                  clock=lambda: clock_now[0])
        check()                       # t=0: fine
        clock_now[0] = 5.0
        with pytest.raises(JobCancelled) as excinfo:
            check()
        assert excinfo.value.reason == REASON_DEADLINE
        # Everything else watching the job sees the same cancellation.
        assert token.cancelled
        assert token.reason == REASON_DEADLINE

    def test_jobcancelled_message_carries_reason(self):
        error = JobCancelled(REASON_DRAIN)
        assert "drain" in str(error)
