"""Payment Protocol Layer (paper sec 3.1, 3.4, Figure 3).

Three charging policies, each its own protocol module that interacts with
GB Accounts but never touches the database directly:

* **pay before use** — :mod:`repro.payments.direct`: an on-line funds
  transfer with a bank-signed confirmation for the GSP; no instrument.
* **pay as you go** — :mod:`repro.payments.hashchain`: "GridHash",
  PayWord-style hash chains; one signed commitment amortized over many
  micropayments the GSP verifies *offline* with one hash each.
* **pay after use** — :mod:`repro.payments.cheque`: "GridCheque",
  NetCheque-style signed cheques with locked-funds payment guarantees
  (sec 3.4), redeemable singly or in batches.

New schemes "can be added without need to modify GB Accounts or GB
Security modules": the funds-locking ones share one issue / settle /
release lifecycle (:class:`~repro.payments.instruments.InstrumentProtocol`)
and write only their own checks.
"""

from repro.payments.instruments import InstrumentProtocol, InstrumentRegistry, Settlement
from repro.payments.cheque import GridCheque, GridChequeProtocol
from repro.payments.hashchain import (
    GridHashCommitment,
    GridHashProtocol,
    HashChainWallet,
    HashChainVerifier,
    PaymentTick,
)
from repro.payments.direct import DirectTransferProtocol, TransferConfirmation
from repro.payments.coin import GridCoin, GridCoinProtocol

__all__ = [
    "InstrumentProtocol",
    "InstrumentRegistry",
    "Settlement",
    "GridCheque",
    "GridChequeProtocol",
    "GridHashCommitment",
    "GridHashProtocol",
    "HashChainWallet",
    "HashChainVerifier",
    "PaymentTick",
    "DirectTransferProtocol",
    "TransferConfirmation",
    "GridCoin",
    "GridCoinProtocol",
]
