"""A single crawler visit to a site.

Every visit builds a *real* simulated browser window (WebDriver-controlled
profile), lets the extension -- if any -- inject its content script, and
then runs the site's actual fingerprint probes against it.  The bot
verdict is therefore produced by the same code path as the Table 1
experiments; the population only decides *which* probes a site runs and
how it reacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.browser.navigator import NavigatorProfile
from repro.browser.window import Window
from repro.bus import (
    ChallengeDetected,
    InputObstructed,
    NavigateToUrl,
    NullBus,
    OverlayDetected,
    PageStalled,
    QueryElements,
    RunScript,
    resolve_or_none,
)
from repro.crawl.population import (
    DetectionSignal,
    HostileArchetype,
    Reaction,
    SiteConfig,
)
from repro.detection.fingerprint import probe_webdriver_flag, run_all_probes
from repro.dom.hostile import (
    install_challenge,
    install_hidden_input,
    install_overlay,
)
from repro.jsontext import dumps_ascii
from repro.spoofing.extension import SpoofingExtension


class FailureReason:
    """The failure taxonomy recorded on unreached visits.

    Separating *site-side* conditions (``UNREACHABLE`` is permanent,
    ``TRANSIENT`` is per-visit web dynamics) from *crawler-side* faults
    (the :class:`repro.faults.FaultType` values) is what lets the
    supervisor retry only what a retry can fix, and lets the evaluation
    keep crawler failure out of the paper's site-reaction statistics.
    """

    #: The site never responds (DNS/parking/geo-block) -- permanent.
    UNREACHABLE = "unreachable"
    #: A one-off web-dynamics failure -- a retry usually succeeds.
    TRANSIENT = "transient"
    #: All retries were consumed without a successful page load.
    EXHAUSTED_PREFIX = "exhausted:"
    #: The per-domain circuit breaker refused the visit.
    CIRCUIT_OPEN = "circuit-open"
    #: A stall watchdog aborted the attempt at the step budget -- the
    #: page may behave next time, so a retry is worthwhile.
    STALLED = "stalled"
    #: The page stalled with no watchdog to bound it: the visit hung
    #: until an external kill.  Permanent -- retrying an unsupervised
    #: hang just hangs again.
    STALLED_UNBOUNDED = "stalled-unbounded"
    #: A modal/cookie overlay blocked the page and nothing dismissed it.
    MODAL_OVERLAY = "modal-overlay"
    #: A challenge interstitial gated the page and nothing waited it out.
    CHALLENGE_INTERSTITIAL = "challenge-interstitial"
    #: A required input was unreachable and nothing fell back to a
    #: scripted direct fill.
    HIDDEN_INPUT = "hidden-input"

    #: Hostile-page conditions no retry fixes without a watchdog: the
    #: page presents the same obstacle every time.
    _PERMANENT = frozenset(
        {
            UNREACHABLE,
            STALLED_UNBOUNDED,
            MODAL_OVERLAY,
            CHALLENGE_INTERSTITIAL,
            HIDDEN_INPUT,
        }
    )

    @staticmethod
    def exhausted(last_reason: str) -> str:
        """Terminal reason after retries ran out (keeps the last cause)."""
        return FailureReason.EXHAUSTED_PREFIX + last_reason

    @staticmethod
    def is_permanent(reason: Optional[str]) -> bool:
        """Whether retrying this failure cannot help."""
        return reason in FailureReason._PERMANENT


@dataclass
class HTTPResponse:
    """One HTTP response observed during a visit."""

    url: str
    status: int
    first_party: bool

    @property
    def is_error(self) -> bool:
        return self.status >= 400


@dataclass
class Screenshot:
    """The visually observable outcome of a visit (Table 2's categories)."""

    blocked: bool = False
    captcha: bool = False
    ads_expected: int = 0
    ads_shown: int = 0
    video_frozen: bool = False
    layout_deformed: bool = False

    @property
    def missing_all_ads(self) -> bool:
        return self.ads_expected > 0 and self.ads_shown == 0

    @property
    def missing_some_ads(self) -> bool:
        return 0 < self.ads_shown < self.ads_expected


@dataclass
class VisitRecord:
    """Everything recorded about one visit."""

    domain: str
    rank: int
    visit_index: int
    reached: bool
    responses: List[HTTPResponse] = field(default_factory=list)
    screenshot: Optional[Screenshot] = None
    #: Whether the site's detector decided "bot" this visit.
    detected_as_bot: bool = False
    #: Why the visit failed (a :class:`FailureReason` value or a
    #: :class:`repro.faults.FaultType` value); ``None`` when reached.
    failure_reason: Optional[str] = None
    #: Visit attempts actually made (1 without a supervisor).
    attempts: int = 1
    #: Whether the visit succeeded only after at least one failed attempt.
    recovered: bool = False
    #: :meth:`checkpoint_json`'s bytes, once a checkpoint needed them.
    _json: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def first_party_errors(self) -> int:
        return sum(1 for r in self.responses if r.first_party and r.is_error)

    def third_party_errors(self) -> int:
        return sum(1 for r in self.responses if not r.first_party and r.is_error)

    # -- checkpoint serialisation ---------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (inverse of :meth:`from_dict`)."""
        return {
            "domain": self.domain,
            "rank": self.rank,
            "visit_index": self.visit_index,
            "reached": self.reached,
            "responses": [
                {"url": r.url, "status": r.status, "first_party": r.first_party}
                for r in self.responses
            ],
            "screenshot": None
            if self.screenshot is None
            else {
                "blocked": self.screenshot.blocked,
                "captcha": self.screenshot.captcha,
                "ads_expected": self.screenshot.ads_expected,
                "ads_shown": self.screenshot.ads_shown,
                "video_frozen": self.screenshot.video_frozen,
                "layout_deformed": self.screenshot.layout_deformed,
            },
            "detected_as_bot": self.detected_as_bot,
            "failure_reason": self.failure_reason,
            "attempts": self.attempts,
            "recovered": self.recovered,
        }

    def checkpoint_json(self) -> bytes:
        """``json.dumps(self.to_dict())`` as bytes, encoded once: the
        supervisor checkpoints a record only after the visit completed,
        and a completed record never changes."""
        if self._json is None:
            self._json = dumps_ascii(self.to_dict())
        return self._json

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VisitRecord":
        screenshot = data.get("screenshot")
        return cls(
            domain=data["domain"],
            rank=data["rank"],
            visit_index=data["visit_index"],
            reached=data["reached"],
            responses=[HTTPResponse(**r) for r in data.get("responses", [])],
            screenshot=None if screenshot is None else Screenshot(**screenshot),
            detected_as_bot=data.get("detected_as_bot", False),
            failure_reason=data.get("failure_reason"),
            attempts=data.get("attempts", 1),
            recovered=data.get("recovered", False),
        )


def _run_site_detector(
    site: SiteConfig, window: Window, rng: np.random.Generator, reference
) -> bool:
    """The site's bot-detection script.  Returns True when it fires."""
    deployment = site.detector
    if deployment is None:
        return False
    if rng.random() >= deployment.fire_probability:
        return False
    if deployment.signal is DetectionSignal.WEBDRIVER_FLAG:
        return probe_webdriver_flag(window) is True
    if deployment.signal is DetectionSignal.SIDE_EFFECTS:
        result = run_all_probes(window, reference)
        return result.bot_suspected
    # DetectionSignal.OTHER: non-fingerprint signal; already gated by
    # fire_probability above.
    return True


def _scripted_scroll(bus, browser: int) -> None:
    """The visit's scripted scroll, issued over the bus."""
    bus.publish(RunScript(script="window.scrollTo(0, 0)", browser=browser))


def _confront_hostile(
    site: SiteConfig,
    window: Window,
    rng: np.random.Generator,
    *,
    bus,
    browser: int,
    visit_index: int,
    attempt: int,
) -> Optional[str]:
    """Let the site's hostile archetype obstruct the visit.

    Installs the archetype's furniture into the live document and
    publishes the matching :class:`~repro.bus.events.Resolvable`.  A
    watchdog that resolves it lets the visit proceed (performing or
    replaying the interrupted scripted scroll); an unresolved event
    degrades gracefully into the returned typed failure reason -- never
    an exception.
    """
    live = bus is not None and not isinstance(bus, NullBus)
    hostile = site.hostile

    def finish_actions() -> None:
        if live:
            _scripted_scroll(bus, browser)

    if hostile is HostileArchetype.STALLING:
        # One dedicated draw decides whether this attempt stalls; plain
        # pages never reach here, so their rng streams are untouched.
        if rng.random() >= site.hostile_intensity:
            finish_actions()
            return None
        event = resolve_or_none(
            bus,
            PageStalled(
                domain=site.domain, visit_index=visit_index, attempt=attempt
            ),
        )
        if event is not None and event.resolved:
            return FailureReason.STALLED
        return FailureReason.STALLED_UNBOUNDED

    if hostile is HostileArchetype.MODAL_OVERLAY:
        kind = "cookie-banner" if site.rank % 2 == 0 else "modal"
        overlay = install_overlay(window.document, kind=kind)
        event = resolve_or_none(
            bus,
            OverlayDetected(
                domain=site.domain,
                kind=kind,
                dismiss=overlay.remove,
                action_chain=[finish_actions],
            ),
        )
        if event is not None and event.resolved:
            return None
        return FailureReason.MODAL_OVERLAY

    if hostile is HostileArchetype.CHALLENGE_INTERSTITIAL:
        interstitial = install_challenge(window.document)
        event = resolve_or_none(
            bus,
            ChallengeDetected(domain=site.domain, wait_out=interstitial.remove),
        )
        if event is not None and event.resolved:
            finish_actions()
            return None
        return FailureReason.CHALLENGE_INTERSTITIAL

    if hostile is HostileArchetype.HIDDEN_INPUT:
        hidden = install_hidden_input(window.document)

        def fill_direct() -> None:
            hidden.value = "crawler@example.org"

        event = resolve_or_none(
            bus,
            InputObstructed(
                domain=site.domain,
                element_id=hidden.id,
                fill_direct=fill_direct,
            ),
        )
        if event is not None and event.resolved and hidden.value:
            finish_actions()
            return None
        return FailureReason.HIDDEN_INPUT

    finish_actions()
    return None


def simulate_visit(
    site: SiteConfig,
    *,
    extension: Optional[SpoofingExtension],
    visit_index: int,
    rng: np.random.Generator,
    reference=None,
    per_visit_failure: float = 0.002,
    driver=None,
    injector=None,
    bus=None,
    browser: int = 0,
    attempt: int = 0,
) -> VisitRecord:
    """Simulate one crawler visit to ``site``.

    ``driver`` (a :class:`repro.webdriver.driver.WebDriver`) reuses a
    supervisor-managed browser instance instead of building a fresh
    window; its caller is then responsible for extension injection.
    ``injector`` (an armed :class:`repro.faults.FaultInjector`) routes
    the visit through the real WebDriver command sequence -- navigate,
    element lookup, scripted scroll -- so scheduled faults surface as
    the typed exceptions a live crawl would see.
    ``bus`` (a live :class:`repro.bus.EventBus` with a
    :class:`~repro.browser.session.BrowserSession` attached for
    ``browser``) routes that same command sequence through command
    events instead of direct driver calls, and lets watchdog
    subscribers resolve the site's hostile archetype; without a bus,
    hostile pages degrade into their typed failure immediately.
    """
    record = VisitRecord(
        domain=site.domain, rank=site.rank, visit_index=visit_index, reached=True
    )
    if site.unreachable:
        record.reached = False
        record.failure_reason = FailureReason.UNREACHABLE
        return record
    if injector is not None:
        # Process-level faults (OOM) strike before the browser acts.
        injector.on_hook("visit")
    if rng.random() < per_visit_failure:
        record.reached = False
        record.failure_reason = FailureReason.TRANSIENT
        return record

    # Build (or reuse) the automated browser and let the extension act
    # on the page.
    if driver is not None:
        window = driver.window
    else:
        window = Window(profile=NavigatorProfile(webdriver=True))
        if injector is not None:
            from repro.webdriver.driver import WebDriver

            # The driver marks the navigator *before* the extension
            # spoofs it, as in a real instrumented browser.
            driver = WebDriver(window)
        if extension is not None:
            extension.inject(window)
    use_bus = (
        bus is not None and not isinstance(bus, NullBus) and driver is not None
    )
    if use_bus:
        previous_injector = driver.fault_injector
        if injector is not None:
            driver.fault_injector = injector
        try:
            bus.publish(
                NavigateToUrl(url=f"https://{site.domain}/", browser=browser)
            )
            bus.publish(
                QueryElements(by="tag name", value="body", browser=browser)
            )
            hostile_failure = _confront_hostile(
                site,
                window,
                rng,
                bus=bus,
                browser=browser,
                visit_index=visit_index,
                attempt=attempt,
            )
            if hostile_failure is not None:
                record.reached = False
                record.failure_reason = hostile_failure
                return record
        finally:
            driver.fault_injector = previous_injector
    elif injector is not None:
        previous_injector = driver.fault_injector
        driver.fault_injector = injector
        try:
            driver.get(f"https://{site.domain}/")
            driver.find_elements("tag name", "body")
            driver.execute_script("window.scrollTo(0, 0)")
        finally:
            driver.fault_injector = previous_injector
    elif site.hostile is not None:
        hostile_failure = _confront_hostile(
            site,
            window,
            rng,
            bus=None,
            browser=browser,
            visit_index=visit_index,
            attempt=attempt,
        )
        if hostile_failure is not None:
            record.reached = False
            record.failure_reason = hostile_failure
            return record

    ledger = getattr(window, "probe_ledger", None)
    ledger_start = len(ledger) if ledger is not None else 0
    detected = _run_site_detector(site, window, rng, reference)
    if ledger is not None and driver is not None:
        delta = len(ledger) - ledger_start
        if delta:
            # Tie the visit's ledger slice into the span tree: the event
            # carries the entry-count delta, the ledger itself carries
            # the per-access detail.
            driver.tracer.event("probe.ledger", entries=delta)
    record.detected_as_bot = detected
    reaction = site.detector.reaction if (site.detector and detected) else None

    screenshot = Screenshot(ads_expected=site.ad_slots, ads_shown=site.ad_slots)
    responses: List[HTTPResponse] = [
        HTTPResponse(f"https://{site.domain}/", 200, first_party=True)
    ]

    if reaction is Reaction.BLOCK_PAGE:
        screenshot.blocked = True
        responses[0] = HTTPResponse(f"https://{site.domain}/", 403, first_party=True)
        screenshot.ads_shown = 0
        screenshot.ads_expected = 0  # the block page has no ad slots
    elif reaction is Reaction.CAPTCHA:
        screenshot.captcha = True
        responses[0] = HTTPResponse(f"https://{site.domain}/", 503, first_party=True)
        screenshot.ads_shown = 0
        screenshot.ads_expected = 0
    elif reaction is Reaction.NO_ADS:
        screenshot.ads_shown = 0
    elif reaction is Reaction.LESS_ADS:
        if site.ad_slots > 1:
            screenshot.ads_shown = int(rng.integers(1, site.ad_slots))
        else:
            screenshot.ads_shown = 0
    elif reaction is Reaction.FREEZE_VIDEO:
        screenshot.video_frozen = True
    elif reaction is Reaction.HTTP_ONLY:
        # Subresource blocking: some first-party API calls and trackers
        # answer 403/503; the page still renders.
        for i in range(int(rng.integers(1, 4))):
            status = 403 if rng.random() < 0.7 else 503
            responses.append(
                HTTPResponse(
                    f"https://{site.domain}/api/{i}", status, first_party=True
                )
            )

    # Ordinary first-party subresources.
    if not (screenshot.blocked or screenshot.captcha):
        for i in range(6):
            status = 200
            roll = rng.random()
            if roll < site.first_party_error_rate:
                status = int(rng.choice([404, 403, 500, 503], p=[0.6, 0.15, 0.15, 0.1]))
            responses.append(
                HTTPResponse(f"https://{site.domain}/assets/{i}", status, first_party=True)
            )

        # Third parties (ads, trackers, CDNs) with web-dynamics noise.
        for i in range(site.n_third_party):
            status = 200
            roll = rng.random()
            if roll < site.third_party_error_rate:
                status = int(
                    rng.choice(
                        [404, 400, 403, 410, 429, 500, 502, 503],
                        p=[0.48, 0.12, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05],
                    )
                )
            responses.append(
                HTTPResponse(f"https://tp-{i}.example/r", status, first_party=False)
            )

        # Ad-auction noise: occasionally fewer ads regardless of detection.
        if reaction is None and screenshot.ads_expected > 0:
            if rng.random() < site.ad_noise_probability:
                screenshot.ads_shown = int(rng.integers(0, screenshot.ads_expected))

    # Breakage: the proxied navigator trips the site's own scripts.
    if extension is not None and site.breakage is not None:
        if site.breakage == "layout":
            screenshot.layout_deformed = True
        elif site.breakage == "video":
            screenshot.video_frozen = True

    record.responses = responses
    record.screenshot = screenshot
    return record
