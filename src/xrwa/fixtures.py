"""Golden credential fixtures covering seven tokenized asset types.

Content is fixed and deterministic (seeded world, fixed field values), so
two runs emit byte-identical documents. The residential-property fixture is
the reference shape: an ERC-721 binding on eip155:1 with a parcel polygon
footprint, a 120 sqm floor area and a 30-day audit cycle.
"""

from __future__ import annotations

from . import canonical, credential, identity
from .ledger import World, WorldConfig
from .primitives import KeyPair, digest, keygen

__all__ = ["FIXTURE_TYPES", "fixture_items", "issue_fixture_set", "fixture_world"]

FIXTURE_SEED = 20_250_101


def _asset_did(name: str) -> str:
    return "did:xrwa:" + digest(b"asset:" + name.encode()).hex()


def _doc(name: str, media: str, issued_by: str) -> dict:
    return {
        "name": name,
        "hash": canonical.to_hex(digest(b"document:" + name.encode())),
        "mediaType": media,
        "issuedBy": issued_by,
    }


def _identifier(scheme: str, value: str, jurisdiction: str, authority: str) -> dict:
    return {
        "identifierScheme": scheme,
        "identifierValue": value,
        "jurisdiction": jurisdiction,
        "issuingAuthority": authority,
    }


def _attr(name: str, value: str, unit: str) -> dict:
    return {"name": name, "value": value, "unit": unit}


def _point(lon: float, lat: float) -> dict:
    return {
        "encoding": "GeoJSON",
        "geometry": {"type": "Point", "coordinates": [lon, lat]},
        "granularity": "site",
    }


def _items(
    name: str, asset_type: str, category: str, class_tag: str, token: tuple[str, str, str, str], *,
    identifiers: list, taxonomies: list, footprint: dict, documents: list,
    relations: list, attributes: list, custom: dict,
    compliance: tuple[str, list, list, str, str], custody: tuple[str, str, str, int],
) -> dict:
    """The four-section request of one fixture type from the values that are
    its own. The fields every fixture shares or derives are written here:
    the asset id from `name`, the class did (also the first relation), the
    identity schema, a compliance window of one year, and the insurance
    policy reference. The tuples list their section's own fields in key
    order. Callers pass fresh lists and dicts; the result holds them as is."""
    class_did = "did:web:issuer.example.org:class:" + class_tag
    standard, chain, contract, token_id = token
    license_id, regions, restrictions, effective_from, regulator = compliance
    custodian, location, policy, audit_days = custody
    return {
        "asset": {
            "assetId": _asset_did(name),
            "assetType": asset_type,
            "category": category,
            "classDid": class_did,
            "tokenBinding": {"standard": standard, "chain": chain, "contract": contract, "tokenId": token_id},
        },
        "identity": {
            "schemaVersion": 1,
            "identitySchema": "https://example.org/schemas/rwa-identity-v2.json",
            "identifiers": identifiers,
            "taxonomies": taxonomies,
            "spatialFootprint": footprint,
            "documents": documents,
            "relations": [{"relation": "belongsToClass", "target": class_did}, *relations],
            "attributes": attributes,
            "custom": custom,
        },
        "compliance": {
            "licenseId": license_id,
            "sellableRegions": regions,
            "restrictions": restrictions,
            "effectiveFrom": effective_from,
            "effectiveTo": str(int(effective_from[:4]) + 1) + effective_from[4:],
            "regulatorDid": regulator,
        },
        "custody": {
            "custodianDid": custodian,
            "location": location,
            "policy": policy,
            "auditCycleDays": audit_days,
            "insurancePolicyRef": {"hash": canonical.to_hex(digest(b"insurance:" + name.encode()))},
        },
    }


def fixture_items(asset_type: str) -> dict:
    """Request content (section map) for one of the seven fixture types;
    every call builds fresh objects, so a caller may mutate what it gets."""
    try:
        build = _BUILDERS[asset_type]
    except KeyError:
        raise ValueError(f"unknown fixture type {asset_type!r}") from None
    return build()


def _real_estate() -> dict:
    return _items(
        "RE", "RealEstate", "Residential", "RE-RESIDENCE",
        ("ERC-721", "eip155:1", "0xBC4CA0EdA7647A8aB7C2061c2E118A18a936f13D", "1234"),
        identifiers=[
            _identifier("LandRegistryFolio", "example-2024-000123", "CN-SH", "Shanghai Real Estate Registration Center"),
            _identifier("CadastralParcel", "310115-004-0882-0017", "CN-SH", "Municipal Bureau of Planning and Natural Resources"),
            _identifier("TaxParcelNumber", "PTX-2024-7741-220", "CN-SH", "Municipal Tax Service"),
        ],
        taxonomies=[
            {"system": "UNSPSC", "code": "70131500", "label": "Residential property"},
            {"system": "NACE", "code": "L68.10", "label": "Buying and selling of own real estate"},
        ],
        footprint={
            "encoding": "GeoJSON",
            "geometry": {
                "type": "Polygon",
                "coordinates": [
                    [[121.45, 31.20], [121.46, 31.20], [121.46, 31.21], [121.45, 31.21], [121.45, 31.20]]
                ],
            },
            "granularity": "parcel",
        },
        documents=[
            _doc("Deed", "application/pdf", "did:web:issuer.org"),
            _doc("TitleInsurancePolicy", "application/pdf", "did:web:title.example.insurance"),
            _doc("SurveyReport", "application/pdf", "did:web:survey.example.org"),
            _doc("ValuationReport2025", "application/pdf", "did:web:appraisal.example.org"),
            _doc("EnergyPerformanceCertificate", "application/pdf", "did:web:energy.example.gov"),
            _doc("FloorPlan", "image/svg+xml", "did:web:architect.example.org"),
            _doc("OccupancyPermit", "application/pdf", "did:web:buildings.example.gov"),
            _doc("HomeownersAssociationBylaws", "application/pdf", "did:web:hoa.example.org"),
            _doc("LeaseAgreementCurrent", "application/pdf", "did:web:property.example.management"),
            _doc("PropertyTaxAssessment2025", "application/pdf", "did:web:tax.example.gov"),
            _doc("SeismicComplianceReport", "application/pdf", "did:web:engineering.example.org"),
            _doc("UtilityEasementRegister", "application/pdf", "did:web:landregistry.example.gov"),
            _doc("BuildingInsuranceSchedule", "application/pdf", "did:web:insurer.example.org"),
        ],
        relations=[
            {"relation": "managedBy", "target": "did:web:property.example.management"},
            {"relation": "encumberedBy", "target": "did:web:mortgage.example.bank:lien:ML-2023-4410"},
        ],
        attributes=[
            _attr("floorArea", "120", "sqm"),
            _attr("lotArea", "245", "sqm"),
            _attr("yearBuilt", "2011", "year"),
            _attr("yearRenovated", "2021", "year"),
            _attr("bedrooms", "3", "count"),
            _attr("bathrooms", "2", "count"),
            _attr("storeys", "2", "count"),
            _attr("parkingSpaces", "1", "count"),
            _attr("heatingSystem", "district", "category"),
            _attr("energyRating", "B", "scale"),
            _attr("zoningCode", "R2-residential", "category"),
            _attr("occupancyStatus", "tenant-occupied", "category"),
            _attr("annualGrossRent", "43200", "USD"),
            _attr("lastAppraisedValue", "1284000", "USD"),
        ],
        custom={
            "localPolicyTag": "RWA-POL-01",
            "iotDeviceIds": ["sensor-xyz-001"],
            "smartLockVendor": "acme-access-v2",
            "utilityMeterIds": ["elec-229981", "water-55120"],
        },
        compliance=("example-2025-8899", ["US", "EU", "SG", "HK"], ["NoCrossBorderSale"],
                    "2025-01-01", "did:web:regulator.gov"),
        custody=("did:web:custody.bank.example", "Vault-example-01", "ISO-27001+SOC2", 30),
    )


def _vehicle() -> dict:
    return _items(
        "Vehicle", "Vehicle", "PassengerCar", "VEHICLE-PASSENGER",
        ("ERC-721", "eip155:137", "0x52908400098527886E0F7030069857D2E4169EE7", "88"),
        identifiers=[
            _identifier("VIN", "WAUZZZ8V5KA123456", "DE", "Kraftfahrt-Bundesamt"),
            _identifier("RegistrationPlate", "M-XY 2048", "DE-BY", "Munich Vehicle Registration Office"),
            _identifier("TypeApprovalNumber", "e1*2007/46*0623*11", "EU", "European Commission Vehicle Type Approval"),
            _identifier("HSNTSN", "0588/BPM", "DE", "Kraftfahrt-Bundesamt"),
        ],
        taxonomies=[
            {"system": "UNSPSC", "code": "25101503", "label": "Passenger motor vehicles"},
            {"system": "CN8", "code": "87032319", "label": "Motor cars, spark-ignition, 1500-3000cc"},
            {"system": "KBA", "code": "0588", "label": "Audi AG manufacturer code"},
        ],
        footprint=_point(11.5820, 48.1351),
        documents=[
            _doc("TitleCertificate", "application/pdf", "did:web:registry.example.de"),
            _doc("InspectionReport2025", "application/pdf", "did:web:tuv.example.de"),
            _doc("InsuranceCertificate", "application/pdf", "did:web:insurer.example.de"),
            _doc("ServiceHistoryLedger", "application/pdf", "did:web:dealer.example.de"),
            _doc("EmissionsComplianceCertificate", "application/pdf", "did:web:environment.example.gov"),
            _doc("PurchaseInvoice", "application/pdf", "did:web:dealer.example.de"),
            _doc("OdometerAttestation", "application/pdf", "did:web:tuv.example.de"),
            _doc("CustomsClearanceRecord", "application/pdf", "did:web:customs.example.gov"),
        ],
        relations=[{"relation": "servicedBy", "target": "did:web:dealer.example.de:workshop:MUC-04"}],
        attributes=[
            _attr("make", "Audi", "brand"),
            _attr("model", "Q5 45 TFSI", "trim"),
            _attr("modelYear", "2019", "year"),
            _attr("firstRegistration", "2019-06-14", "date"),
            _attr("odometer", "48210", "km"),
            _attr("engineDisplacement", "1984", "cc"),
            _attr("powerOutput", "180", "kW"),
            _attr("fuelType", "petrol", "category"),
            _attr("emissionClass", "Euro 6d-TEMP", "standard"),
            _attr("exteriorColor", "Navarra Blue", "color"),
            _attr("transmission", "automatic", "category"),
            _attr("seats", "5", "count"),
            _attr("accidentHistory", "none recorded", "category"),
        ],
        custom={
            "telematicsUnitId": "obd-unit-5521",
            "keySetsHeld": "2",
            "immobilizerCode": "escrowed",
        },
        compliance=("vehicle-lic-2025-0144", ["EU", "UK", "CH"], [], "2025-02-01", "did:web:transport.example.gov"),
        custody=("did:web:fleet.custody.example", "BondedGarage-MUC-07", "ISO-27001", 90),
    )


def _gold() -> dict:
    return _items(
        "Gold", "Commodity", "GoldBullion", "AU-BULLION",
        ("ERC-1155", "eip155:1", "0x8617E340B3D01FA5F11F306F4090FD50E238070D", "7"),
        identifiers=[
            _identifier("BarSerialNumber", "ZH-994021-A", "CH", "Zurich Assay Office"),
            _identifier("LBMARefinerCode", "VALC-CH-009", "CH", "London Bullion Market Association"),
            _identifier("VaultWarrantNumber", "WR-2024-8831", "CH", "Commodity Exchange Clearing House"),
            _identifier("ChainOfCustodyId", "COC-AU-2023-55712", "CH", "Independent Custody Auditors AG"),
            _identifier("ExchangeLotNumber", "LOT-AU-77-2024", "CH", "Commodity Exchange Clearing House"),
        ],
        taxonomies=[
            {"system": "UNSPSC", "code": "11101704", "label": "Gold"},
            {"system": "HS", "code": "7108.12", "label": "Gold, non-monetary, unwrought"},
        ],
        footprint=_point(8.5417, 47.3769),
        documents=[
            _doc("AssayCertificate", "application/pdf", "did:web:assay.example.ch"),
            _doc("PurchaseReceipt", "application/pdf", "did:web:dealer.example.ch"),
            _doc("StorageAgreement", "application/pdf", "did:web:vault.bank.example.ch"),
            _doc("ChainOfCustodyLog", "application/pdf", "did:web:custody.auditors.example"),
            _doc("InsuranceSchedule", "application/pdf", "did:web:insurer.example.ch"),
            _doc("ResponsibleSourcingAttestation", "application/pdf", "did:web:lbma.example.org"),
            _doc("VaultInventoryExtract", "application/pdf", "did:web:vault.bank.example.ch"),
            _doc("WeighingProtocol", "application/pdf", "did:web:assay.example.ch"),
        ],
        relations=[{"relation": "refinedBy", "target": "did:web:refiner.example.ch:valcambi"}],
        attributes=[
            _attr("fineness", "999.9", "permille"),
            _attr("mass", "1000", "g"),
            _attr("grossWeight", "1000.4", "g"),
            _attr("form", "cast bar", "category"),
            _attr("refiner", "Valcambi", "organization"),
            _attr("meltYear", "2023", "year"),
            _attr("dimensions", "117x53x27", "mm"),
            _attr("sealNumber", "SL-88241-C", "id"),
            _attr("lastAuditDate", "2025-04-30", "date"),
            _attr("goodDeliveryStatus", "conforming", "category"),
        ],
        custom={
            "allocationType": "allocated",
            "vaultShelfLocation": "Z2-R14-S03",
        },
        compliance=("bullion-lic-2025-777", ["US", "EU", "SG", "CH"], [], "2025-01-15", "did:web:finma.example.gov"),
        custody=("did:web:vault.bank.example.ch", "HighSecurityVault-ZRH-02", "ISO-27001+SOC2", 180),
    )


def _art() -> dict:
    return _items(
        "Art", "Artwork", "Painting", "ART-PAINTING",
        ("ERC-721", "eip155:1", "0xDE1E86F6B41C8B3F3F3A0D12A0E9D9AD2551D5B2", "21"),
        identifiers=[
            _identifier("CatalogueRaisonne", "CR-1967-114", "FR", "Fondation de l'Artiste"),
            _identifier("ArtLossRegisterId", "ALR-553-20021", "UK", "Art Loss Register"),
            _identifier("MuseumInventoryNumber", "MNAM-D-1967-088", "FR", "Musee National d'Art Moderne"),
            _identifier("CitesPermitNumber", "not-applicable", "FR", "Ministry of Ecological Transition"),
        ],
        taxonomies=[
            {"system": "UNSPSC", "code": "60121012", "label": "Paintings"},
            {"system": "AAT", "code": "300033618", "label": "paintings (visual works)"},
        ],
        footprint=_point(2.3364, 48.8606),
        documents=[
            _doc("ProvenanceDossier", "application/pdf", "did:web:gallery.example.fr"),
            _doc("AuthenticationCertificate", "application/pdf", "did:web:expert.example.fr"),
            _doc("ConditionReport2024", "application/pdf", "did:web:conservator.example.fr"),
            _doc("ExhibitionHistory", "application/pdf", "did:web:museum.example.fr"),
            _doc("AuctionRecordExtract", "application/pdf", "did:web:auctionhouse.example.fr"),
            _doc("InfraredReflectographyStudy", "application/pdf", "did:web:lab.example.fr"),
            _doc("ExportLicenceApplication", "application/pdf", "did:web:culture.example.gov"),
            _doc("AppraisalReport2024", "application/pdf", "did:web:appraiser.example.fr"),
            _doc("ConservationTreatmentRecord", "application/pdf", "did:web:conservator.example.fr"),
            _doc("InsuranceValuationCertificate", "application/pdf", "did:web:insurer.example.fr"),
        ],
        relations=[
            {"relation": "createdBy", "target": "did:web:artists.example.org:person:jm-delacour"},
            {"relation": "documentedIn", "target": "did:web:fondation.example.fr:catalogue:CR-1967"},
        ],
        attributes=[
            _attr("artist", "J. M. Delacour", "name"),
            _attr("title", "Port au crepuscule", "name"),
            _attr("yearCreated", "1967", "year"),
            _attr("medium", "oil on canvas", "category"),
            _attr("heightCm", "73", "cm"),
            _attr("widthCm", "92", "cm"),
            _attr("signaturePosition", "lower right", "category"),
            _attr("conditionGrade", "very good", "scale"),
            _attr("lastHammerPrice", "410000", "EUR"),
            _attr("lastSaleDate", "2021-10-07", "date"),
            _attr("provenanceGapYears", "none", "category"),
        ],
        custom={
            "frameIncluded": "true",
            "uvMarkerApplied": "2023-02-11",
        },
        compliance=("art-export-2025-301", ["US", "EU", "UK"], ["CulturalHeritageExportPermitRequired"],
                    "2025-03-01", "did:web:culture.example.gov"),
        custody=("did:web:freeport.custody.example", "ClimateControlledStore-GVA-11", "ISO-27001+PAS197", 120),
    )


def _bond() -> dict:
    return _items(
        "Bond", "DebtInstrument", "CorporateBond", "BOND-CORP",
        ("ERC-20", "eip155:1", "0x6B175474E89094C44DA98B954EEDEAC495271D0F", "0"),
        identifiers=[
            _identifier("ISIN", "XS2434891772", "LU", "Luxembourg Stock Exchange"),
            _identifier("CUSIP", "038222AG4", "US", "CUSIP Global Services"),
            _identifier("FIGI", "BBG00XEXAMPLE8", "GLOBAL", "Object Management Group"),
            _identifier("CommonCode", "243489177", "LU", "Clearstream Banking"),
        ],
        taxonomies=[
            {"system": "CFI", "code": "DBFUFR", "label": "Debt, bond, fixed rate"},
            {"system": "UNSPSC", "code": "93151604", "label": "Bond issuance services"},
        ],
        footprint=_point(6.1296, 49.6117),
        documents=[
            _doc("Prospectus", "application/pdf", "did:web:issuer.example.lu"),
            _doc("RatingLetter", "application/pdf", "did:web:rating.example.agency"),
            _doc("PricingSupplement", "application/pdf", "did:web:issuer.example.lu"),
            _doc("TrustDeed", "application/pdf", "did:web:trustee.example.lu"),
            _doc("PayingAgencyAgreement", "application/pdf", "did:web:agent.example.lu"),
            _doc("LegalOpinionIssuance", "application/pdf", "did:web:counsel.example.lu"),
            _doc("ListingParticulars", "application/pdf", "did:web:exchange.example.lu"),
            _doc("AuditorComfortLetter", "application/pdf", "did:web:auditor.example.lu"),
            _doc("CouponPaymentSchedule", "application/pdf", "did:web:agent.example.lu"),
        ],
        relations=[{"relation": "guaranteedBy", "target": "did:web:parentco.example.lu"}],
        attributes=[
            _attr("faceValue", "1000", "USD"),
            _attr("issueSize", "500000000", "USD"),
            _attr("couponRate", "4.25", "percent"),
            _attr("couponFrequency", "semiannual", "category"),
            _attr("issueDate", "2024-06-30", "date"),
            _attr("maturityDate", "2031-06-30", "date"),
            _attr("rating", "BBB+", "scale"),
            _attr("ratingOutlook", "stable", "category"),
            _attr("seniority", "senior unsecured", "category"),
            _attr("governingLaw", "English law", "category"),
            _attr("minimumDenomination", "100000", "USD"),
            _attr("nextCouponDate", "2025-12-30", "date"),
        ],
        custom={
            "dayCountConvention": "30/360",
            "businessDayConvention": "modified following",
        },
        compliance=("bond-prog-2025-MTN1", ["EU", "UK", "SG"], ["QualifiedInvestorsOnly"],
                    "2025-01-10", "did:web:cssf.example.gov"),
        custody=("did:web:csd.custody.example", "GlobalNote-ICSD-01", "CSDR", 30),
    )


def _fund() -> dict:
    return _items(
        "Fund", "FundShare", "MoneyMarketFund", "FUND-MMF",
        ("ERC-20", "eip155:1", "0x7F39C581F595B53C5CB19BD0B3F8DA6C935E2CA0", "0"),
        identifiers=[
            _identifier("LEI", "549300EXAMPLE7GR0W46", "IE", "Global LEI Foundation"),
            _identifier("FundRegisterNumber", "IE-MMF-2023-0456", "IE", "Central Bank of Ireland"),
            _identifier("ISIN", "IE000EXAMPLE55", "IE", "Irish Stock Exchange"),
            _identifier("BloombergTicker", "XMMFUSD ID", "GLOBAL", "Bloomberg L.P."),
        ],
        taxonomies=[
            {"system": "CFI", "code": "CIOGCM", "label": "Collective investment, money market"},
            {"system": "UNSPSC", "code": "84121701", "label": "Mutual funds"},
        ],
        footprint=_point(-6.2603, 53.3498),
        documents=[
            _doc("OfferingMemorandum", "application/pdf", "did:web:fund.example.ie"),
            _doc("AnnualAuditReport", "application/pdf", "did:web:auditor.example.ie"),
            _doc("NavStatement2025Q2", "application/pdf", "did:web:administrator.example.ie"),
            _doc("DepositaryAgreement", "application/pdf", "did:web:depositary.custody.example"),
            _doc("KeyInvestorInformation", "application/pdf", "did:web:fund.example.ie"),
            _doc("PortfolioHoldingsSnapshot", "application/pdf", "did:web:administrator.example.ie"),
            _doc("ProspectusSupplement2025", "application/pdf", "did:web:fund.example.ie"),
            _doc("SemiAnnualReport", "application/pdf", "did:web:auditor.example.ie"),
            _doc("TransferAgencyAgreement", "application/pdf", "did:web:registrar.example.ie"),
        ],
        relations=[
            {"relation": "managedBy", "target": "did:web:assetmanager.example.ie"},
            {"relation": "administeredBy", "target": "did:web:administrator.example.ie"},
        ],
        attributes=[
            _attr("navPerShare", "1.0003", "USD"),
            _attr("assetsUnderManagement", "412000000", "USD"),
            _attr("inceptionDate", "2023-04-03", "date"),
            _attr("managementFee", "0.19", "percent"),
            _attr("totalExpenseRatio", "0.24", "percent"),
            _attr("strategy", "short-term government", "category"),
            _attr("baseCurrency", "USD", "currency"),
            _attr("weightedAverageMaturity", "34", "days"),
            _attr("weightedAverageLife", "51", "days"),
            _attr("dailyLiquidAssets", "31.5", "percent"),
            _attr("weeklyLiquidAssets", "47.2", "percent"),
            _attr("shareClassCount", "4", "count"),
        ],
        custom={
            "settlementCycle": "T+0",
            "distributionPolicy": "accumulating",
        },
        compliance=("ucits-mmf-2025-061", ["EU", "UK", "SG", "HK"], ["NoUSRetailInvestors"],
                    "2025-01-02", "did:web:centralbank.example.gov"),
        custody=("did:web:depositary.custody.example", "BookEntry-DUB-01", "UCITS-V", 90),
    )


def _ip() -> dict:
    return _items(
        "IP", "IntellectualProperty", "Patent", "IP-PATENT",
        ("ERC-721", "eip155:42161", "0x912CE59144191C1204E64559FE8253A0E49E6548", "501"),
        identifiers=[
            _identifier("PatentNumber", "EP3567821B1", "EP", "European Patent Office"),
            _identifier("ApplicationNumber", "EP18174321.9", "EP", "European Patent Office"),
            _identifier("PriorityApplication", "US62/510,442", "US", "United States Patent and Trademark Office"),
            _identifier("FamilyId", "DOCDB-62110448", "EP", "European Patent Office"),
            _identifier("WipoPublication", "WO2019/224891", "WO", "World Intellectual Property Organization"),
        ],
        taxonomies=[
            {"system": "IPC", "code": "H04L9/32", "label": "Cryptographic mechanisms for entity authentication"},
            {"system": "CPC", "code": "H04L9/3239", "label": "Involving hash functions"},
        ],
        footprint=_point(8.6821, 50.1109),
        documents=[
            _doc("PatentGrantPublication", "application/pdf", "did:web:epo.example.org"),
            _doc("AssignmentAgreement", "application/pdf", "did:web:lawfirm.example.org"),
            _doc("AnnuityPaymentLedger", "application/pdf", "did:web:annuity.example.org"),
            _doc("FreedomToOperateOpinion", "application/pdf", "did:web:counsel.example.org"),
            _doc("LicenseAgreementSummary", "application/pdf", "did:web:licensee.example.com"),
            _doc("ValidityOpinion", "application/pdf", "did:web:counsel.example.org"),
            _doc("ClaimChartAnalysis", "application/pdf", "did:web:counsel.example.org"),
            _doc("SecurityInterestRelease", "application/pdf", "did:web:lawfirm.example.org"),
        ],
        relations=[{"relation": "licensedTo", "target": "did:web:licensee.example.com"}],
        attributes=[
            _attr("filingDate", "2018-05-24", "date"),
            _attr("grantDate", "2021-11-10", "date"),
            _attr("expiryDate", "2038-05-24", "date"),
            _attr("independentClaims", "3", "count"),
            _attr("totalClaims", "17", "count"),
            _attr("designatedStates", "DE FR GB NL SE", "list"),
            _attr("oppositionPeriodEnded", "2022-08-10", "date"),
            _attr("annualLicenseRevenue", "240000", "EUR"),
            _attr("encumbrances", "none", "category"),
            _attr("renewalFeeNextDue", "2026-05-31", "date"),
            _attr("inventorCount", "4", "count"),
        ],
        custom={
            "maintenanceFeesPaidThrough": "2026",
            "litigationHistory": "none",
        },
        compliance=("ip-assign-2025-118", ["US", "EU", "UK", "JP"], [],
                    "2025-02-15", "did:web:patentoffice.example.gov"),
        custody=("did:web:ip.escrow.example", "DigitalEscrow-FRA-03", "ISO-27001", 365),
    )


_BUILDERS = {
    "Vehicle": _vehicle,
    "RE": _real_estate,
    "Gold": _gold,
    "Art": _art,
    "Bond": _bond,
    "Fund": _fund,
    "IP": _ip,
}

FIXTURE_TYPES = tuple(_BUILDERS)


def fixture_world() -> tuple[World, KeyPair, KeyPair]:
    """Fresh world with a registered issuer and holder for fixture issuance."""
    world = World(WorldConfig(seed=FIXTURE_SEED))
    issuer = keygen(digest(b"fixture-issuer"))
    holder = keygen(digest(b"fixture-holder"))
    identity.did_create(world, issuer)
    identity.did_create(world, holder)
    return world, issuer, holder


def issue_fixture_set() -> dict[str, credential.CompositeCredential]:
    """Issue all seven fixture credentials deterministically."""
    world, issuer, holder = fixture_world()
    out = {}
    for name in FIXTURE_TYPES:
        req = credential.request(fixture_items(name), holder)
        out[name] = credential.issue(world, req, issuer)
    return out
