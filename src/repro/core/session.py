"""GridSession — the Figure-1 world and its end-to-end use case.

Builds a complete GASA deployment on one discrete-event simulator: a CA
and trust store, a GridBank server reachable over the in-process secure
transport, an administrator, a Grid Market Directory, and any number of
consumers (GSCs) and providers (GSPs). :meth:`run_job` then executes the
paper's sec 2 use case for one job under any of the three payment
strategies, returning what each side saw plus the transport's message
counts — the quantities the strategy benchmarks compare.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.bank.server import GridBankServer
from repro.core.api import GridBankAPI
from repro.core.charging import ChargeCalculation
from repro.core.rates import ServiceRatesRecord
from repro.errors import PaymentError, ValidationError
from repro.grid.gsp import GridServiceProvider, ServiceSession
from repro.grid.job import Job, JobStatus
from repro.grid.market import GridMarketDirectory
from repro.grid.resource import GridResource
from repro.grid.scheduler import SchedulingPolicy
from repro.grid.trade import PricingModel
from repro.net.retry import RetryPolicy
from repro.net.rpc import RPCClient
from repro.net.transport import FaultPlan, InProcessNetwork
from repro.pki.ca import CertificateAuthority, Identity
from repro.pki.certificate import DistinguishedName
from repro.pki.validation import CertificateStore
from repro.sim.engine import Simulator
from repro.util.gbtime import VirtualClock
from repro.util.money import Credits, ZERO

__all__ = ["PaymentStrategy", "Participant", "SessionOutcome", "GridSession"]


class PaymentStrategy(enum.Enum):
    """The three charging policies of sec 3.1."""

    PAY_BEFORE_USE = "pay-before-use"
    PAY_AS_YOU_GO = "pay-as-you-go"
    PAY_AFTER_USE = "pay-after-use"


@dataclass
class Participant:
    """A principal with a bank account; may also own a provider side."""

    name: str
    identity: Identity
    api: GridBankAPI
    account_id: str
    host: str
    provider: Optional[GridServiceProvider] = None

    @property
    def subject(self) -> str:
        return self.identity.subject

    def balance(self) -> Credits:
        return self.api.check_balance(self.account_id)


@dataclass
class SessionOutcome:
    """What one run_job produced, for both sides of the trade."""

    job: Job
    strategy: PaymentStrategy
    charge: Credits          # GSP-calculated rates x usage
    paid: Credits            # what actually moved to the GSP
    refunded: Credits        # reservation released back to the consumer
    bank_messages: int       # transport messages exchanged with the bank
    negotiation_rounds: int
    wall_clock_s: float
    calculation: Optional[ChargeCalculation]
    service: Optional[ServiceSession]


class GridSession:
    def __init__(
        self,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
        retry_attempts: int = 0,
    ) -> None:
        """*faults* injects network failures between every participant and
        the bank; *retry_attempts* > 0 gives each bank client a seeded
        :class:`~repro.net.retry.RetryPolicy` (exactly-once re-sends), which
        is what lets a session complete under an aggressive fault plan."""
        self.rng = random.Random(seed)
        self.clock = VirtualClock()
        self.sim = Simulator(clock=self.clock)
        self.ca = CertificateAuthority(
            DistinguishedName("GridBank", "Root CA"),
            clock=self.clock,
            rng=random.Random(self.rng.getrandbits(32)),
            key_bits=512,
        )
        self.store = CertificateStore([self.ca.root_certificate])
        bank_ident = self.ca.issue_identity(
            DistinguishedName("GridBank", "server"), key_bits=512
        )
        self.bank = GridBankServer(
            bank_ident,
            self.store,
            clock=self.clock,
            rng=random.Random(self.rng.getrandbits(32)),
        )
        if faults is not None and faults.clock is None:
            faults.clock = self.clock
        self._retry_attempts = retry_attempts
        self.network = InProcessNetwork(faults=faults)
        self.network.listen("gridbank", self.bank.connection_handler)
        self.gmd = GridMarketDirectory()
        admin_ident = self.ca.issue_identity(DistinguishedName("GridBank", "admin"), key_bits=512)
        self.bank.admin.add_administrator(admin_ident.subject)
        self.admin_api = self._bank_api(admin_ident)
        self.participants: dict[str, Participant] = {}

    # -- construction -----------------------------------------------------------

    def _bank_api(self, identity: Identity) -> GridBankAPI:
        policy = None
        if self._retry_attempts > 0:
            policy = RetryPolicy(
                max_attempts=self._retry_attempts,
                rng=random.Random(self.rng.getrandbits(32)),
            )
        client = RPCClient(
            self.network.connect("gridbank"),
            identity,
            self.store,
            clock=self.clock,
            rng=random.Random(self.rng.getrandbits(32)),
            retry_policy=policy,
            reconnect=lambda: self.network.connect("gridbank"),
        )
        client.connect()
        return GridBankAPI(client, rng=random.Random(self.rng.getrandbits(32)))

    def add_consumer(self, name: str, funds: float = 0.0, org: str = "VO-A") -> Participant:
        """A GSC: identity + funded bank account."""
        if name in self.participants:
            raise ValidationError(f"participant {name!r} already exists")
        identity = self.ca.issue_identity(DistinguishedName(org, name), key_bits=512)
        api = self._bank_api(identity)
        account_id = api.create_account(organization_name=org)
        if funds > 0:
            self.admin_api.admin_deposit(account_id, Credits(funds))
        participant = Participant(
            name=name, identity=identity, api=api, account_id=account_id,
            host=f"{name}.{org.lower()}.example.org",
        )
        self.participants[name] = participant
        return participant

    def add_provider(
        self,
        name: str,
        rates: ServiceRatesRecord,
        num_pes: int = 8,
        mips_per_pe: float = 500.0,
        funds: float = 0.0,
        org: str = "VO-B",
        scheduling_policy: SchedulingPolicy = SchedulingPolicy.SPACE_SHARED,
        pricing_model: PricingModel = PricingModel.POSTED_PRICE,
        pool_size: int = 16,
        advertise: bool = True,
        failure_rate: float = 0.0,
        **resource_kwargs,
    ) -> Participant:
        """A GSP: identity, account, resource, scheduler, GTS, GBCM."""
        participant = self.add_consumer(name, funds=funds, org=org)
        resource = GridResource.cluster(
            f"{name}.{org.lower()}.example.org",
            participant.subject,
            num_pes=num_pes,
            mips_per_pe=mips_per_pe,
            **resource_kwargs,
        )
        provider = GridServiceProvider(
            self.sim,
            participant.identity,
            resource,
            participant.api,
            participant.account_id,
            rates,
            scheduling_policy=scheduling_policy,
            pricing_model=pricing_model,
            pool_size=pool_size,
            failure_rate=failure_rate,
            rng=random.Random(self.rng.getrandbits(32)),
        )
        participant.provider = provider
        if advertise:
            provider.advertise(self.gmd)
        return participant

    # -- the Figure-1 use case ----------------------------------------------------------

    def estimate_cost(self, gsp: GridServiceProvider, job: Job, rates: ServiceRatesRecord) -> Credits:
        cpu_hours = job.runtime_on(gsp.resource.mips_per_pe) / 3600.0
        wall_hours = cpu_hours  # dedicated-PE estimate
        return rates.estimate_job_cost(
            cpu_hours=cpu_hours,
            io_mb=job.total_io_mb,
            memory_mb_hours=job.memory_mb * wall_hours,
        )

    def run_job(
        self,
        consumer: Participant,
        provider: Participant,
        job: Job,
        strategy: PaymentStrategy = PaymentStrategy.PAY_AFTER_USE,
        budget: Optional[Credits] = None,
        bid_fraction: Optional[float] = None,
        payg_tick_seconds: float = 60.0,
    ) -> SessionOutcome:
        """One complete consumer->broker->GSP->bank interaction."""
        gsp = provider.provider
        if gsp is None:
            raise ValidationError(f"participant {provider.name!r} is not a provider")
        messages_before = self.network.stats.messages_sent
        start_time = self.sim.now

        # 1. establish the cost of services (GTS negotiation)
        negotiation = gsp.negotiate(bid_fraction=bid_fraction)
        rates = negotiation.rates
        estimate = self.estimate_cost(gsp, job, rates)
        reserve = budget if budget is not None else estimate * 2 + Credits(0.01)

        # 2. obtain a payment instrument and get admitted
        paid = ZERO
        refunded = ZERO
        if strategy is PaymentStrategy.PAY_AFTER_USE:
            cheque = consumer.api.request_cheque(consumer.account_id, gsp.subject, reserve)
            gsp.admit(consumer.subject, cheque)
        elif strategy is PaymentStrategy.PAY_AS_YOU_GO:
            link_value = rates.total_charge(
                _unit_usage(payg_tick_seconds, gsp.resource.mips_per_pe, job)
            )
            if link_value <= ZERO:
                link_value = Credits(0.000001)
            length = max(1, int(math.ceil(reserve.micro / link_value.micro)))
            wallet = consumer.api.request_hashchain(
                consumer.account_id, gsp.subject, length, link_value
            )
            gsp.admit(consumer.subject, wallet.commitment)
            self.sim.spawn(
                _payg_payer(self.sim, gsp, wallet, job, payg_tick_seconds),
                name=f"payer-{job.job_id}",
            )
        else:  # PAY_BEFORE_USE: fixed price, funds transferred up front
            price = estimate
            if price <= ZERO:
                price = Credits(0.000001)
            consumer.api.request_direct_transfer(
                consumer.account_id,
                provider.account_id,
                price,
                recipient_address=gsp.address,
            )
            confirmations = provider.api.fetch_confirmations(gsp.address)
            if not confirmations or confirmations[-1].amount < price:
                raise PaymentError("pay-before-use confirmation missing or short")
            paid = price
            gsp.admit(consumer.subject, None)

        # 3-5. execute, meter, charge, settle
        process = self.sim.spawn(
            gsp.serve_job(job, rates, user_host=consumer.host), name=f"serve-{job.job_id}"
        )
        self.sim.run()
        service: ServiceSession = process.result
        settlement = service.settlement
        if strategy is not PaymentStrategy.PAY_BEFORE_USE:
            paid = settlement.get("paid", ZERO)
            refunded = settlement.get("released", ZERO)

        return SessionOutcome(
            job=job,
            strategy=strategy,
            charge=service.calculation.total,
            paid=paid,
            refunded=refunded,
            bank_messages=self.network.stats.messages_sent - messages_before,
            negotiation_rounds=negotiation.rounds,
            wall_clock_s=self.sim.now - start_time,
            calculation=service.calculation,
            service=service,
        )


def _unit_usage(tick_seconds: float, mips: float, job: Job):
    """Usage consumed per PAYG tick: CPU at full rate for tick_seconds."""
    from repro.rur.record import UsageVector

    hours = tick_seconds / 3600.0
    return UsageVector(
        cpu_time_s=tick_seconds,
        wall_clock_s=tick_seconds,
        memory_mb_h=job.memory_mb * hours,
    )


def _payg_payer(sim, gsp: GridServiceProvider, wallet, job: Job, tick_seconds: float):
    """Reveal one hash link per tick while the job runs (sec 3.1:
    "dynamically pay service providers for CPU time")."""
    terminal = (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)
    while job.status not in terminal and wallet.remaining > 0:
        # pay for the upcoming tick in advance, then let it elapse
        tick = wallet.pay()
        gsp.gbcm.accept_tick(job.user_subject, tick)
        yield tick_seconds
    return wallet.spent
