"""Secrecy under channel-estimation error.

Estimation error both weakens the informed receiver's beamforming gain
and leaks artificial noise into its channel, so the achievable rate
drops and the critical SNR climbs; past a point no power level helps.
"""
from ansec import (
    CsiError,
    PowerSplit,
    SystemConfig,
    critical_snr_exact,
    secrecy_rate,
    to_db,
)

SPLIT = PowerSplit(0.5)


def main() -> None:
    cfg, p = SystemConfig(na=8), 100.0
    print("rate vs estimation-error variance, na=8, ne=1, P=20 dB")
    print("  err_var     rate")
    print(f"    0.000  {secrecy_rate(cfg, p, SPLIT).c:7.4f}")
    for s2 in (0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8):
        rep = secrecy_rate(cfg, p, SPLIT, CsiError(s2))
        print(f"    {s2:5.3f}  {rep.c:7.4f}")

    print()
    print("critical SNR vs error variance, na=4")
    print("  err_var  p_c_db")
    for s2 in (0.0, 0.1, 0.2, 0.4, 0.6):
        err = CsiError(s2) if s2 > 0 else None
        p_c = critical_snr_exact(SystemConfig(na=4), SPLIT, err)
        text = f"{to_db(p_c):7.2f}" if p_c != float("inf") else "    inf"
        print(f"    {s2:5.3f}  {text}")


if __name__ == "__main__":
    main()
